#!/bin/sh
# Run the behaviour suites (criterion-1, criterion-3, second-order and
# hub-20000, the bordered storage at n = 20000) of the tree this script
# lives in, with one BLAS thread, timing off and two worker processes per
# suite (--jobs 2; the reports come out in config order and agree byte for
# byte with a serial run), into OUT/<suite>/. A refactor keeps behaviour
# when the outputs of the trees before and after it agree:
#
#   scripts/behaviour_csvs.sh /tmp/before     # on the old tree
#   scripts/behaviour_csvs.sh /tmp/after      # on the new tree
#   diff -r -I '"wall_s"' /tmp/before /tmp/after
#
# The CSVs must be byte-identical, and reports.json may differ only in its
# measured wall_s lines, which -I ignores.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
for suite in criterion-1 criterion-3 second-order hub-20000; do
    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" \
        python -m far2.cli run --config "$root/experiments/$suite.cfg" \
        --out "$out/$suite" --jobs 2 > /dev/null
    echo "wrote $out/$suite"
done
