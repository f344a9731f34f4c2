"""Benchmark harness.

Runs (solver, problem) suites described by a flat sectioned config file,
collects RunReports, serializes them as CSV/JSON, and derives Dolan-More
performance profiles from the stored cost counters.

CSV columns are fixed: problem, n, solver, status, n_nli, n_fact, n_refresh,
ave_K, n_sub, n_sec, f_final, gnorm_final, wall_s. Wall time is written as
0.000 unless timing is switched on, so reruns with identical configuration
and seeds are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import POLYNOMIAL, RATIONAL, SolverConfig
from .driver import (IterationRecord, RunReport, ar2_solve, far2_solve,
                     far2so_solve)
from .errors import ConfigError, InternalInvariantError, ProfileError
from .problems import (get_problem, load_libsvm, logistic_objective,
                       registry_entry, remap_labels, sigmoid_objective,
                       synth_classification)
from .second_order import SecondOrderConfig


class Solver(NamedTuple):
    """What a solver name runs; the name fixes the Krylov space."""
    solve: Callable[..., RunReport]
    config: type
    space_kind: str


SOLVERS = {
    "AR2": Solver(ar2_solve, SolverConfig, POLYNOMIAL),
    "FAR2-PK": Solver(far2_solve, SolverConfig, POLYNOMIAL),
    "FAR2-RK": Solver(far2_solve, SolverConfig, RATIONAL),
    "FAR2-SO": Solver(far2so_solve, SecondOrderConfig, POLYNOMIAL),
}
CSV_COLUMNS = ("problem", "n", "solver", "status", "n_nli", "n_fact",
               "n_refresh", "ave_K", "n_sub", "n_sec", "f_final",
               "gnorm_final", "wall_s")

# Stopping tolerances by problem family: 1e-6 on the analytic registry,
# 1e-3 on classification tasks.
EPS_REL_REGISTRY = 1.0e-6
EPS_REL_CLASSIFICATION = 1.0e-3


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "registry"        # registry | logistic | sigmoid
    name: str = ""
    n: int = 0
    N: int = 0
    seed: int = 0
    source: str = "synth"         # synth | path to a LIBSVM file

    @property
    def label(self) -> str:
        if self.kind == "registry":
            return self.name
        if self.source == "synth":
            return f"{self.kind}:synth[N={self.N},n={self.n},seed={self.seed}]"
        width = f"[n={self.n}]" if self.n else ""
        return f"{self.kind}:{os.path.basename(self.source)}{width}"


@dataclass
class SuiteConfig:
    solvers: list[str]
    problems: list[ProblemSpec]
    solver_overrides: dict = field(default_factory=dict)
    out: str = "."
    seed: int = 0
    jobs: int = 1
    timing: bool = False

    def __post_init__(self):
        if not self.solvers or not self.problems:
            raise ConfigError("need at least one solver and one problem")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ConfigError(f"unknown solver {s!r}; choose from {tuple(SOLVERS)}")
            if self.solvers.count(s) > 1:
                raise ConfigError(f"[solver] {s}: named more than once")
            # building the config checks each key and value now, not once
            # the suite is running
            try:
                build_solver_config(s, ProblemSpec(), self.solver_overrides)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[solver] {s}: {exc}") from exc
        stray = [name for name in self.solver_overrides if name not in self.solvers]
        if stray:
            raise ConfigError(f"overrides for solvers the suite does not run: {stray}")
        for p in self.problems:
            # each kind of problem rejects the keys it does not read
            if p.kind == "registry":
                try:
                    registry_entry(p.name, p.n)
                except (KeyError, ValueError) as exc:
                    raise ConfigError(exc.args[0]) from None
                what, unread = "registry", ("N", "seed", "source")
            elif p.kind not in ("logistic", "sigmoid"):
                raise ConfigError(f"unknown problem kind {p.kind!r}")
            elif p.source == "synth":
                if min(p.N, p.n) < 1:
                    raise ConfigError(f"{p.label}: N and n must be positive")
                if p.seed + self.seed < 0:
                    raise ConfigError(f"{p.label}: seed {p.seed} plus suite "
                                      f"seed {self.seed} is negative")
                what, unread = "classification", ("name",)
            else:
                # a LIBSVM file gives its own N, and its n unless n is set
                what, unread = "LIBSVM-file", ("name", "N", "seed")
            stray = [k for k in unread if getattr(p, k) != getattr(ProblemSpec, k)]
            if stray:
                raise ConfigError(f"{p.label}: a {what} problem takes "
                                  f"no {', '.join(stray)}")


def build_problem(spec: ProblemSpec, base_seed: int = 0):
    """Fresh oracle instance for one run (counters start at zero)."""
    if spec.kind == "registry":
        return get_problem(spec.name, spec.n)
    if spec.source == "synth":
        data = synth_classification(spec.N, spec.n, spec.seed + base_seed)
    else:
        data = load_libsvm(spec.source, n_features=spec.n or None)
    if spec.kind == "logistic":
        return logistic_objective(remap_labels(data, "pm1"))
    return sigmoid_objective(remap_labels(data, "01"))


def build_solver_config(solver: str, spec: ProblemSpec,
                        solver_overrides: dict | None = None) -> SolverConfig:
    """`solver`'s config on `spec`; the name fixes the Krylov space, so an
    override of `space_kind` is a TypeError."""
    entry = SOLVERS[solver]
    eps = EPS_REL_REGISTRY if spec.kind == "registry" else EPS_REL_CLASSIFICATION
    params = {"eps_rel": eps, **(solver_overrides or {}).get(solver, {})}
    return entry.config(space_kind=entry.space_kind, **params)


def _run_one(task) -> RunReport:
    solver, spec, solver_overrides, base_seed = task
    problem = None
    try:
        problem = build_problem(spec, base_seed)
        cfg = build_solver_config(solver, spec, solver_overrides)
        report = SOLVERS[solver].solve(problem, cfg)
    except Exception as exc:  # one failed run must not end the suite
        message = f"{type(exc).__name__}: {exc}"
        x0 = np.zeros(0) if problem is None else problem.x0.copy()
        report = RunReport(solver, spec.label,
                           spec.n if problem is None else problem.n,
                           "solve_failure", x0, math.nan, math.nan,
                           message=message)
        if isinstance(exc, InternalInvariantError):
            report.violations.append(message)
    report.problem = spec.label
    return report


def run_suite(cfg: SuiteConfig) -> list[RunReport]:
    """One RunReport per (solver, problem), in configuration order."""
    tasks = [(solver, spec, cfg.solver_overrides, cfg.seed)
             for spec in cfg.problems for solver in cfg.solvers]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            reports = list(pool.map(_run_one, tasks))
    else:
        reports = [_run_one(t) for t in tasks]
    return reports


# --- performance profiles ---------------------------------------------------

METRICS = ("n_fact", "n_nli")


@dataclass
class ProfileTable:
    """Per-(solver, problem) cost ratios and the derived step curves."""

    metric: str
    solvers: list[str]
    problems: list[str]
    costs: dict
    ratios: dict

    def value(self, solver: str, tau: float) -> float:
        rs = [self.ratios[(solver, p)] for p in self.problems]
        return sum(1 for r in rs if r <= tau) / len(self.problems)

    def series(self, solver: str) -> list[tuple[float, float]]:
        """Breakpoints (tau, p(tau)) of the nondecreasing step curve."""
        finite = sorted({self.ratios[(solver, p)] for p in self.problems
                         if math.isfinite(self.ratios[(solver, p)])})
        taus = sorted({1.0, *finite})
        return [(t, self.value(solver, t)) for t in taus]


def performance_profile(reports: list[RunReport], metric: str = "n_fact") -> ProfileTable:
    """Dolan-More profile: per-problem cost ratios against the best solver.

    Failed runs are assigned an infinite ratio. With a zero best cost only
    solvers that also report zero cost count as matching the best.
    """
    if metric not in METRICS:
        raise ProfileError(f"metric must be one of {list(METRICS)}")
    solvers = list(dict.fromkeys(r.solver for r in reports))
    # a "problem" is one (label, dimension) instance
    problems = list(dict.fromkeys((r.problem, r.n) for r in reports))
    if len(solvers) < 2:
        raise ProfileError("profiles need at least two solvers")
    costs = {}
    for r in reports:
        costs[(r.solver, (r.problem, r.n))] = (float(getattr(r, metric))
                                               if r.converged else None)
    ratios = {}
    for p in problems:
        vals = [costs.get((s, p)) for s in solvers]
        finite = [v for v in vals if v is not None]
        best = min(finite) if finite else None
        for s in solvers:
            c = costs.get((s, p))
            if c is None or best is None:
                ratios[(s, p)] = math.inf
            elif best == 0.0:
                ratios[(s, p)] = 1.0 if c == 0.0 else math.inf
            else:
                ratios[(s, p)] = c / best
    return ProfileTable(metric, solvers, problems, costs, ratios)


# --- report serialization ---------------------------------------------------

def _csv_row(r: RunReport, timing: bool) -> list[str]:
    wall = r.wall_s if timing else 0.0
    return [r.problem, str(r.n), r.solver, r.status, str(r.n_nli),
            str(r.n_fact), str(r.n_refresh), f"{r.ave_subspace_dim:.2f}",
            str(r.n_subspace_steps), str(r.n_secant_calls),
            f"{r.f_final:.12e}", f"{r.gnorm_final:.12e}", f"{wall:.3f}"]


def write_reports_csv(reports: list[RunReport], path, timing: bool = False) -> None:
    """Quotes a field that holds a comma (a classification label)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_csv_row(r, timing) for r in reports)


def _jsonable(r: RunReport) -> dict:
    d = dataclasses.asdict(r)
    d["x_final"] = [float(v) for v in d["x_final"]]
    return d


def write_reports_json(reports: list[RunReport], path) -> None:
    payload = {"reports": [_jsonable(r) for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_reports_json(path) -> list[RunReport]:
    """The reports write_reports_json stored at `path`, for profiles;
    raises ProfileError when the file holds anything else."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for d in json.load(fh)["reports"]:
                d = dict(d)
                d["trace"] = [IterationRecord(**t) for t in d.get("trace", [])]
                d["x_final"] = np.asarray(d["x_final"], dtype=float)
                out.append(RunReport(**d))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"{path} is not a reports file "
                               f"({type(exc).__name__}: {exc})") from exc
    return out


def write_profile_series(table: ProfileTable, outdir) -> list[str]:
    """One two-column (tau, p) file per solver, plot-tool friendly."""
    paths = []
    for solver in table.solvers:
        fname = f"profile_{table.metric}_{solver.replace('/', '_')}.dat"
        path = os.path.join(outdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            for tau, p in table.series(solver):
                fh.write(f"{tau:.10g} {p:.10g}\n")
        paths.append(path)
    return paths


# --- config file ------------------------------------------------------------

_SUITE_KEYS = {"out", "seed", "jobs", "timing"}
# [solver] keys, matched in any case, name SecondOrderConfig fields
_SOLVER_FIELDS = {f.name.lower(): f
                  for f in dataclasses.fields(SecondOrderConfig)}


def _solver_param(key: str, value: str) -> tuple[str, object]:
    """(field name, value as the type of the field's default); an unknown
    key is returned as it is, for the config constructor to reject."""
    f = _SOLVER_FIELDS.get(key.lower())
    return (f.name, type(f.default)(value)) if f else (key, value)


_FLAGS = {"on": True, "true": True, "yes": True, "1": True,
          "off": False, "false": False, "no": False, "0": False}


def _flag(where: str, key: str, value) -> bool:
    try:
        return _FLAGS[str(value).lower()]
    except KeyError:
        raise ConfigError(f"{where} {key}: not on/off/true/false/yes/no/1/0: "
                          f"{value!r}") from None


def _int(where: str, key: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where} {key}: not an integer: {value!r}") from None


def parse_config(path) -> SuiteConfig:
    """Flat sectioned key=value format: [suite], repeated [solver]/[problem]."""
    solvers: list[str] = []
    solver_overrides: dict = {}
    problems: list[ProblemSpec] = []
    suite: dict = {}
    section = None
    current: dict = {}

    def close_section():
        nonlocal current
        if section == "solver":
            name = current.pop("name", None)
            if not name:
                raise ConfigError("[solver] section without a name")
            solvers.append(name)
            try:
                solver_overrides[name] = dict(_solver_param(k, v)
                                              for k, v in current.items())
            except ValueError as exc:
                raise ConfigError(f"[solver] {name}: {exc}") from exc
        elif section == "problem":
            kind = current.pop("kind", "registry")
            spec = ProblemSpec(
                kind=kind,
                name=current.pop("name", "").upper(),
                n=_int("[problem]", "n", current.pop("n", 0) or 0),
                N=_int("[problem]", "N", current.pop("N", 0) or 0),
                seed=_int("[problem]", "seed", current.pop("seed", 0) or 0),
                source=current.pop("source", "synth"))
            if current:
                raise ConfigError(f"unknown problem keys: {sorted(current)}")
            problems.append(spec)
        elif section == "suite":
            unknown = set(current) - _SUITE_KEYS
            if unknown:
                raise ConfigError(f"unknown [suite] keys: {sorted(unknown)}")
            suite.update(current)
        current = {}

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                close_section()
                section = line[1:-1].strip().lower()
                if section not in ("suite", "solver", "problem"):
                    raise ConfigError(f"line {lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            if section is None:
                raise ConfigError(f"line {lineno}: key outside a section")
            key, value = (t.strip() for t in line.split("=", 1))
            current[key] = value
    close_section()

    return SuiteConfig(
        solvers=solvers,
        problems=problems,
        solver_overrides=solver_overrides,
        out=suite.get("out", "."),
        seed=_int("[suite]", "seed", suite.get("seed", 0)),
        jobs=_int("[suite]", "jobs", suite.get("jobs", 1)),
        timing=_flag("[suite]", "timing", suite.get("timing", "off")))


def summarize(reports: list[RunReport]) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"{r.problem:>28s} n={r.n:<6d} {r.solver:<8s} {r.status:<18s} "
            f"nli={r.n_nli:<5d} fact={r.n_fact:<5d} f={r.f_final:.6e} "
            f"|g|={r.gnorm_final:.3e}")
    return "\n".join(lines)

