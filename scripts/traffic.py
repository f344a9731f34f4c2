#!/usr/bin/env python3
"""Line traffic of src/far2: the statements that no run executes.

Runs, in this process, on one BLAS thread and under a line tracer limited
to the frames of src/far2 code:
  - the suites experiments/criterion-1.cfg, criterion-3.cfg,
    second-order.cfg, hub-20000.cfg (the four behaviour suites),
    registry-100.cfg and classify.cfg, serially, writing nothing;
  - one round of each benchmark workload (perfbench/workloads.py,
    build_round with seed 1), read and not changed, as
    scripts/reduced_replay.py does.
It then prints, per module of src/far2, its line count and its code-line
count (lines that hold code: blank lines, comments and docstrings are not
counted), the totals, and every statement inside a function that no run
executed, with its line and enclosing function:

    python3 scripts/traffic.py

It takes a few minutes.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads, as the benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "far2")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import ast  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import time  # noqa: E402
import tokenize  # noqa: E402
from collections import defaultdict  # noqa: E402

from far2 import harness  # noqa: E402
from workloads import WORKLOADS, build_round  # noqa: E402

SUITES = ("criterion-1", "criterion-3", "second-order", "hub-20000",
          "registry-100", "classify")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# declarations compile to no instruction, so they raise no line event
_NO_LINE_EVENT = (ast.Global, ast.Nonlocal)


def _docstring(node) -> ast.Expr | None:
    """The docstring statement of a module, class or function node."""
    if not isinstance(node, (ast.Module, ast.ClassDef) + _FUNCTIONS):
        return None
    first = node.body[0] if node.body else None
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return first
    return None


def code_lines(source: str) -> set[int]:
    """The lines of `source` that hold a token of code outside docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        doc = _docstring(node)
        if doc is not None:
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docs


def _lines(stmt: ast.stmt) -> range:
    """A compound statement's header, decorators included, up to its first
    body statement; all of a simple statement."""
    decorators = getattr(stmt, "decorator_list", [])
    first = min([stmt.lineno] + [d.lineno for d in decorators])
    body = getattr(stmt, "body", None)
    last = body[0].lineno - 1 if body else stmt.end_lineno
    return range(first, max(first, last) + 1)


def function_statements(source: str) -> list[tuple[range, str]]:
    """(lines, enclosing function) of every statement inside a function,
    docstrings and statements without a line event of their own left out."""
    found = []

    def visit(node, qual: str, in_function: bool):
        doc = _docstring(node)
        for child in ast.iter_child_nodes(node):
            if (in_function and isinstance(child, ast.stmt) and child is not doc
                    and not isinstance(child, _NO_LINE_EVENT)):
                found.append((_lines(child), qual))
            if isinstance(child, (ast.ClassDef,) + _FUNCTIONS):
                visit(child, f"{qual}.{child.name}" if qual else child.name,
                      in_function or isinstance(child, _FUNCTIONS))
            else:
                visit(child, qual, in_function)

    visit(ast.parse(source), "", False)
    return found


class LineTracer:
    """The (file, line) pairs executed in frames of code under `prefix`."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hits: dict[str, set[int]] = defaultdict(set)

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_everything() -> None:
    """The suites and one round of each workload, each timed to stderr."""
    for suite in SUITES:
        t0 = time.perf_counter()
        path = os.path.join(ROOT, "experiments", f"{suite}.cfg")
        harness.run_suite(dataclasses.replace(harness.parse_config(path), jobs=1))
        print(f"ran {suite}.cfg in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        for inst in build_round(workload, 1):
            inst.solve(inst.build())
        print(f"ran a {workload} round in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)


def main():
    with LineTracer(PACKAGE + os.sep) as tracer:
        run_everything()
    total_lines = total_code = 0
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        n_code = len(code_lines(source))
        total_lines += len(lines)
        total_code += n_code
        print(f"{name:18s} {len(lines):5d} lines {n_code:5d} code lines")
        hit = tracer.hits.get(path, set())
        for span, scope in function_statements(source):
            if hit.isdisjoint(span):
                missed.append(f"  {name}:{span.start}  {scope}: "
                              f"{lines[span.start - 1].strip()}")
    print(f"{'src/far2':18s} {total_lines:5d} lines {total_code:5d} code lines")
    print(f"\n{len(missed)} function statements that no run executed:")
    print("\n".join(missed))


if __name__ == "__main__":
    main()
