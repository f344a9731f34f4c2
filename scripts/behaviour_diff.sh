#!/bin/sh
# Compare the behaviour suites of a commit REF with those of the working
# tree. REF is exported with git archive into a temporary directory, and
# behaviour_csvs.sh (this tree's copy, in both) runs there and here. The
# script prints diff -r -I '"wall_s"' of the two outputs and then, per
# suite, the reports.csv rows whose status, n_nli or n_fact differ
# (old -> new) and how many rows differ only in f_final or gnorm_final. It
# exits non-zero on any difference and removes its temporary directory:
#
#   scripts/behaviour_diff.sh HEAD
#
# A refactor keeps behaviour when the CSVs are byte-identical and
# reports.json differs only in its measured wall_s lines.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM
mkdir -p "$tmp/ref/scripts"
git -C "$root" archive "$1" | tar -x -C "$tmp/ref"
cp "$root/scripts/behaviour_csvs.sh" "$tmp/ref/scripts/"
sh "$tmp/ref/scripts/behaviour_csvs.sh" "$tmp/before" > /dev/null
sh "$root/scripts/behaviour_csvs.sh" "$tmp/after" > /dev/null
status=0
diff -r -I '"wall_s"' "$tmp/before" "$tmp/after" || status=$?
python3 - "$tmp/before" "$tmp/after" <<'SUMMARY'
import csv
import os
import sys

COUNTS = ("status", "n_nli", "n_fact")
FINAL = {"f_final", "gnorm_final"}


def rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


before, after = sys.argv[1:]
for suite in sorted(os.listdir(before)):
    old = rows(os.path.join(before, suite, "reports.csv"))
    new = rows(os.path.join(after, suite, "reports.csv"))
    moved, final, other = [], 0, 0
    for a, b in zip(old, new):
        changed = {k for k in a if a[k] != b[k]} - {"wall_s"}
        if changed & set(COUNTS):
            moved.append(f"  {a['solver']} {a['problem']}-{a['n']}: "
                         + ", ".join(f"{k} {a[k]} -> {b[k]}"
                                     for k in COUNTS if a[k] != b[k]))
        elif changed <= FINAL:
            final += bool(changed)
        else:
            other += 1
    extra = f"; {other} in other columns" if other else ""
    if len(old) != len(new):
        extra += f"; {len(old)} rows before, {len(new)} after"
    print(f"{suite}: {len(moved)} rows differ in status, n_nli or n_fact, "
          f"{final} only in f_final or gnorm_final{extra}")
    for line in moved:
        print(line)
SUMMARY
[ "$status" -eq 0 ] || exit "$status"
echo "behaviour of the working tree matches $1"
