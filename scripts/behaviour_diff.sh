#!/bin/sh
# Compare the behaviour suites of a commit REF with those of the working
# tree. REF is exported with git archive into a temporary directory, and
# behaviour_csvs.sh (this tree's copy, in both) runs there and here. The
# script prints diff -r -I '"wall_s"' of the two outputs, exits non-zero on
# any difference and removes its temporary directory:
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
diff -r -I '"wall_s"' "$tmp/before" "$tmp/after"
echo "behaviour of the working tree matches $1"
