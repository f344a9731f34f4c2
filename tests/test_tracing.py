"""The per-layer tracer's contract with the solver code.

perfbench/tracing.py wraps the functions and methods its LAYERS table
names. A rename of any of them would break only `--trace 1` runs, so this
test installs the tracer in the test session, runs one small solve of each
kind through it, and one AR2 solve that ends in the boundary step, and
uninstalls it again.
"""

import importlib.util
from pathlib import Path

import far2
from far2 import ar2_solve, far2_solve, get_problem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_exists_and_is_traced():
    tracing = _load_tracing()
    original = far2.secular.solve_secular_full_secant
    tracer = tracing.Tracer()
    tracer.install()  # raises on any LAYERS target that is gone
    try:
        assert far2.driver.solve_secular_full_secant.__wrapped__ is original
        ar2_solve(get_problem("ROSENBR", 10))
        far2_solve(get_problem("ROSENBR", 10))
        # EG2's solve reaches the spectrum edge: the boundary step
        ar2_solve(get_problem("EG2", 30))
    finally:
        tracer.uninstall()
    assert far2.driver.solve_secular_full_secant is original
    for layer in ("secular.fact", "secular.backsolve", "secular.secant",
                  "secular.fallback", "secular.reduced", "krylov.expand",
                  "driver.subspace", "driver.loop", "problems.eval_H"):
        assert tracer.calls[layer] > 0, layer
