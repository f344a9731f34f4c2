import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import far2.driver as driver
from far2.config import RATIONAL
from far2.driver import RunReport
from far2.errors import ConfigError, InternalInvariantError, ProfileError
from far2.harness import (CSV_COLUMNS, SOLVERS, ProblemSpec, SuiteConfig,
                          _jsonable, build_problem, build_solver_config,
                          parse_config, performance_profile,
                          read_reports_json, run_suite, write_reports_csv,
                          write_reports_json)
from far2.problems import registry_names


def spec(name, n):
    return ProblemSpec(kind="registry", name=name, n=n)


def reports_equal(a: RunReport, b: RunReport) -> bool:
    # serialized comparison: NaN-valued fields (rho, lambda_hat and step_norm
    # on subspace-rejection records) compare equal through their textual form
    return (json.dumps(_jsonable(a), sort_keys=True)
            == json.dumps(_jsonable(b), sort_keys=True))


def fake_report(solver, problem, n_fact, status="first_order_point"):
    return RunReport(solver=solver, problem=problem, n=4, status=status,
                     x_final=[0.0], f_final=0.0, gnorm_final=0.0,
                     n_fact=n_fact, n_nli=max(n_fact, 1))


class TestSuiteConfig:
    def test_requires_runs(self):
        with pytest.raises(ConfigError):
            SuiteConfig(solvers=[], problems=[spec("QUAD", 4)])
        with pytest.raises(ConfigError):
            SuiteConfig(solvers=["AR2"], problems=[])

    def test_unknown_solver(self):
        with pytest.raises(ConfigError):
            SuiteConfig(solvers=["NEWTON"], problems=[spec("QUAD", 4)])

    def test_unknown_problem_before_any_run(self):
        with pytest.raises(ConfigError):
            SuiteConfig(solvers=["AR2"], problems=[spec("NOSUCH", 4)])

    @pytest.mark.parametrize("problem,match", [
        (spec("WOODS", 10), "WOODS needs n >= 4 and n % 4 == 0"),
        (spec("EG2", 2), "EG2 needs n >= 3"),
        (spec("QUAD", 0), "QUAD needs n >= 1"),
        (ProblemSpec(kind="logistic", N=0, n=5), "N and n must be positive"),
        (ProblemSpec(kind="sigmoid", N=40), "N and n must be positive"),
    ], ids=["woods-10", "eg2-2", "quad-0", "logistic-N0", "sigmoid-n0"])
    def test_dimension_the_oracle_rejects(self, problem, match):
        with pytest.raises(ConfigError, match=match):
            SuiteConfig(solvers=["AR2"], problems=[problem])

    @pytest.mark.parametrize("problem,seed", [
        (ProblemSpec(kind="logistic", N=50, n=5, seed=-3), 0),
        (ProblemSpec(kind="sigmoid", N=50, n=5, seed=1), -2),
    ], ids=["problem-seed", "suite-seed"])
    def test_negative_synthetic_seed(self, problem, seed):
        # the data generator rejects it, so no run would succeed
        with pytest.raises(ConfigError, match="is negative"):
            SuiteConfig(solvers=["AR2"], problems=[problem], seed=seed)

    @pytest.mark.parametrize("key,value", [("N", 40), ("seed", 3),
                                           ("source", "data.svm")])
    def test_registry_problem_takes_no_data_keys(self, key, value):
        # the registry oracle would run with the key ignored
        problem = ProblemSpec(name="ROSENBR", n=2, **{key: value})
        with pytest.raises(ConfigError,
                           match=f"ROSENBR: a registry problem takes no {key}"):
            SuiteConfig(solvers=["AR2"], problems=[problem])

    @pytest.mark.parametrize("problem,match", [
        (ProblemSpec(kind="logistic", source="x.svm", N=999, seed=7),
         r"logistic:x.svm: a LIBSVM-file problem takes no N, seed"),
        (ProblemSpec(kind="sigmoid", source="x.svm", n=5, name="FOO"),
         r"sigmoid:x.svm\[n=5\]: a LIBSVM-file problem takes no name"),
        (ProblemSpec(kind="logistic", N=50, n=5, name="FOO"),
         r"logistic:synth\[N=50,n=5,seed=0\]: a classification problem "
         r"takes no name"),
    ], ids=["file-N-seed", "file-name", "synth-name"])
    def test_classification_problem_takes_only_the_keys_it_reads(self, problem,
                                                                 match):
        # a LIBSVM file gives its own N and takes no seed, and no
        # classification problem reads a name: each would be ignored
        with pytest.raises(ConfigError, match=match):
            SuiteConfig(solvers=["AR2"], problems=[problem])

    def test_file_problem_label_names_what_its_spec_sets(self):
        assert ProblemSpec(kind="logistic", source="d/x.svm").label == "logistic:x.svm"
        assert (ProblemSpec(kind="sigmoid", source="d/x.svm", n=5).label
                == "sigmoid:x.svm[n=5]")

    def test_seeds_that_sum_to_a_valid_one(self):
        SuiteConfig(solvers=["AR2"], seed=-2,
                    problems=[ProblemSpec(kind="logistic", N=50, n=5, seed=2),
                              spec("QUAD", 4)])

    def test_repeated_solver(self):
        with pytest.raises(ConfigError, match="FAR2-PK"):
            SuiteConfig(solvers=["FAR2-PK", "AR2", "FAR2-PK"],
                        problems=[spec("QUAD", 4)])

    @pytest.mark.parametrize("solver,overrides,match", [
        ("FAR2-PK", {"space_kind": RATIONAL}, "space_kind"),
        ("AR2", {"sigma0": -1.0}, "sigma_min <= sigma0"),
        ("FAR2-RK", {"theta2": 0.2}, "theta2"),
    ])
    def test_overrides_that_build_no_config(self, solver, overrides, match):
        with pytest.raises(ConfigError, match=f"{solver}: .*{match}"):
            SuiteConfig(solvers=[solver], problems=[spec("QUAD", 4)],
                        solver_overrides={solver: overrides})

    def test_overrides_for_solvers_not_run(self):
        # keys the suite would silently ignore, a misspelt name and an
        # invalid value included, are named, not dropped
        with pytest.raises(ConfigError, match="'FAR2-RK', 'FAR2PK'"):
            SuiteConfig(solvers=["FAR2-PK"], problems=[spec("QUAD", 4)],
                        solver_overrides={"FAR2-RK": {"sigma0": -1.0},
                                          "FAR2PK": {"max_iters": 1}})


class TestRunSuite:
    def test_single_pair(self):
        cfg = SuiteConfig(solvers=["FAR2-PK"], problems=[spec("QUAD", 6)])
        reports = run_suite(cfg)
        assert len(reports) == 1
        assert reports[0].solver == "FAR2-PK"
        assert reports[0].converged

    def test_two_solvers_same_minimum(self):
        cfg = SuiteConfig(solvers=["AR2", "FAR2-PK"], problems=[spec("QUAD", 6)])
        ra, rf = run_suite(cfg)
        assert abs(ra.f_final - rf.f_final) <= 1e-8

    def test_failure_isolation(self):
        cfg = SuiteConfig(solvers=["FAR2-PK"],
                          problems=[spec("ROSENBR", 2), spec("QUAD", 4)],
                          solver_overrides={"FAR2-PK": {"max_iters": 5}})
        reports = run_suite(cfg)
        assert reports[0].status == "iter_limit"
        assert reports[1].converged

    @pytest.mark.parametrize("exc", [InternalInvariantError("monitor broke"),
                                     np.linalg.LinAlgError("singular matrix")],
                             ids=["invariant", "linalg"])
    def test_exception_stays_in_its_run(self, monkeypatch, exc):
        def far2_solve(problem, cfg):
            if problem.name == "ROSENBR":
                raise exc
            return driver.far2_solve(problem, cfg)

        monkeypatch.setitem(SOLVERS, "FAR2-PK",
                            SOLVERS["FAR2-PK"]._replace(solve=far2_solve))
        cfg = SuiteConfig(solvers=["AR2", "FAR2-PK"],
                          problems=[spec("ROSENBR", 2), spec("QUAD", 4)])
        reports = run_suite(cfg)
        failed = [r for r in reports if not r.converged]
        assert len(reports) == 4 and len(failed) == 1
        [bad] = failed
        text = f"{type(exc).__name__}: {exc}"
        assert (bad.solver, bad.problem, bad.status) == ("FAR2-PK", "ROSENBR",
                                                         "solve_failure")
        assert bad.message == text
        invariant = isinstance(exc, InternalInvariantError)
        assert bad.violations == ([text] if invariant else [])

    def test_libsvm_sourced_problem(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        rows = ["+1 1:1.0 2:0.3", "-1 1:-0.8 3:0.5", "+1 2:1.2", "-1 3:-0.9"]
        path.write_text("\n".join(rows) + "\n")
        cfg = SuiteConfig(solvers=["FAR2-PK"],
                          problems=[ProblemSpec(kind="logistic",
                                                source=str(path))])
        reports = run_suite(cfg)
        assert reports[0].converged
        assert reports[0].n == 3

    def test_missing_libsvm_file_stays_in_its_run(self, tmp_path):
        missing = ProblemSpec(kind="logistic", source=str(tmp_path / "no.libsvm"))
        cfg = SuiteConfig(solvers=["FAR2-PK"], problems=[missing, spec("QUAD", 4)])
        bad, good = run_suite(cfg)
        assert bad.status == "solve_failure"
        assert bad.message.startswith("FileNotFoundError")
        assert bad.problem == missing.label and bad.x_final.size == 0
        assert good.converged

    def test_each_name_runs_its_row(self):
        cfg = SuiteConfig(solvers=list(SOLVERS), problems=[spec("INDEF", 12)])
        for name, report in zip(SOLVERS, run_suite(cfg)):
            space_kind = SOLVERS[name].space_kind
            assert report.solver == name and report.converged
            assert (report.n_rational_solves > 0) == (space_kind == RATIONAL)
            built = build_solver_config(name, cfg.problems[0])
            assert type(built) is SOLVERS[name].config
            assert built.space_kind == space_kind

    def test_parallel_matches_serial(self):
        problems = [spec("QUAD", 5), spec("TRIDIA", 5)]
        serial = run_suite(SuiteConfig(solvers=["FAR2-PK"], problems=problems))
        parallel = run_suite(SuiteConfig(solvers=["FAR2-PK"], problems=problems,
                                         jobs=2))
        for a, b in zip(serial, parallel):
            assert reports_equal(a, b) or (a.f_final == b.f_final
                                           and a.n_fact == b.n_fact)


@pytest.mark.parametrize("kind", ["logistic", "sigmoid"])
def test_classification_problem_holds_one_feature_matrix(kind):
    # the synthetic A is 5000 x 500 doubles, 20 MB; relabelling for the
    # loss shares it rather than copying it
    spec = ProblemSpec(kind=kind, N=5000, n=500, seed=1)
    tracemalloc.start()
    try:
        build_problem(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 5000 * 500 * 8


class TestPerformanceProfile:
    def test_definition_on_two_solvers(self):
        reports = [fake_report("A", "p1", 1), fake_report("B", "p1", 2)]
        table = performance_profile(reports, "n_fact")
        assert table.value("A", 1.0) == 1.0
        assert table.value("B", 1.0) == 0.0
        assert table.value("B", 2.0) == 1.0

    def test_identical_costs(self):
        reports = [fake_report("A", "p1", 3), fake_report("B", "p1", 3)]
        table = performance_profile(reports, "n_fact")
        assert table.value("A", 1.0) == 1.0
        assert table.value("B", 1.0) == 1.0

    def test_total_failure_stays_zero(self):
        reports = [fake_report("A", "p1", 1),
                   fake_report("B", "p1", 5, status="iter_limit")]
        table = performance_profile(reports, "n_fact")
        assert table.value("B", 1e9) == 0.0
        assert table.ratios[("B", ("p1", 4))] == math.inf

    def test_single_solver_rejected(self):
        with pytest.raises(ProfileError):
            performance_profile([fake_report("A", "p1", 1)], "n_fact")

    def test_unknown_metric_rejected(self):
        reports = [fake_report("A", "p1", 1), fake_report("B", "p1", 2)]
        with pytest.raises(ProfileError):
            performance_profile(reports, "walltime")

    def test_curves_nondecreasing_in_unit_interval(self, rng):
        reports = []
        for s in ("A", "B", "C"):
            for p in range(6):
                ok = rng.random() > 0.15
                reports.append(fake_report(
                    s, f"p{p}", int(rng.integers(1, 40)),
                    status="first_order_point" if ok else "iter_limit"))
        table = performance_profile(reports, "n_fact")
        for s in ("A", "B", "C"):
            series = table.series(s)
            vals = [v for _, v in series]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            taus = [t for t, _ in series]
            assert all(t >= 1.0 for t in taus)

    def test_ratios_never_below_one(self):
        reports = [fake_report("A", "p1", 4), fake_report("B", "p1", 9)]
        table = performance_profile(reports, "n_fact")
        assert all(r >= 1.0 for r in table.ratios.values())


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        # INDEF triggers subspace rejections, whose trace records carry a
        # NaN acceptance ratio: round-tripping must survive those too
        cfg = SuiteConfig(solvers=["FAR2-PK"],
                          problems=[spec("ROSENBR", 2), spec("INDEF", 12)])
        reports = run_suite(cfg)
        path = tmp_path / "reports.json"
        write_reports_json(reports, path)
        back = read_reports_json(path)
        assert len(back) == len(reports)
        assert all(reports_equal(a, b) for a, b in zip(reports, back))

    def test_records_written_before_lambda_hat_and_step_norm_load(self, tmp_path):
        reports = run_suite(SuiteConfig(solvers=["AR2"], problems=[spec("QUAD", 4)]))
        path = tmp_path / "reports.json"
        write_reports_json(reports, path)
        payload = json.loads(path.read_text())
        for t in payload["reports"][0]["trace"]:
            del t["lambda_hat"], t["step_norm"]
        path.write_text(json.dumps(payload))
        [back] = read_reports_json(path)
        assert len(back.trace) == reports[0].n_nli > 0
        assert all(math.isnan(t.lambda_hat) and math.isnan(t.step_norm)
                   for t in back.trace)
        assert [t.rho for t in back.trace] == [t.rho for t in reports[0].trace]

    def test_csv_columns_and_determinism(self, tmp_path):
        cfg = SuiteConfig(solvers=["AR2", "FAR2-PK"],
                          problems=[spec("QUAD", 5)], seed=3)
        r1 = run_suite(cfg)
        r2 = run_suite(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_reports_csv(r1, p1)
        write_reports_csv(r2, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_quotes_classification_labels(self, tmp_path):
        # a classification label holds commas: N=..,n=..,seed=..
        problems = [ProblemSpec(kind="logistic", N=40, n=3, seed=1),
                    spec("QUAD", 4)]
        reports = run_suite(SuiteConfig(solvers=["AR2"], problems=problems))
        path = tmp_path / "reports.csv"
        write_reports_csv(reports, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(CSV_COLUMNS)
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        assert [row[0] for row in rows] == [p.label for p in problems]
        assert "," in problems[0].label


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        text = """
# benchmark suite
[suite]
out = results
seed = 5
jobs = 2

[solver]
name = FAR2-PK
sigma0 = 2.0

[solver]
name = AR2

[problem]
name = rosenbr
n = 2

[problem]
kind = logistic
source = synth
N = 50
n = 4
seed = 9
"""
        path = tmp_path / "suite.cfg"
        path.write_text(text)
        cfg = parse_config(path)
        assert cfg.solvers == ["FAR2-PK", "AR2"]
        assert cfg.out == "results"
        assert cfg.seed == 5 and cfg.jobs == 2
        assert cfg.solver_overrides["FAR2-PK"]["sigma0"] == 2.0
        assert cfg.problems[0] == ProblemSpec(kind="registry", name="ROSENBR", n=2)
        assert cfg.problems[1].kind == "logistic"
        assert cfg.problems[1].N == 50

    def test_bad_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("x = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_suite_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[suite]\ntimng = on\n[solver]\nname = AR2\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        with pytest.raises(ConfigError, match="timng"):
            parse_config(path)

    @pytest.mark.parametrize("value,timing", [
        ("on", True), ("YES", True), ("True", True), ("1", True),
        ("off", False), ("No", False), ("FALSE", False), ("0", False)])
    def test_timing_values(self, tmp_path, value, timing):
        path = tmp_path / "timing.cfg"
        path.write_text(f"[suite]\ntiming = {value}\n[solver]\nname = AR2\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        assert parse_config(path).timing is timing

    @pytest.mark.parametrize("value", ["onn", "2", "enabled", ""])
    def test_bad_timing_value(self, tmp_path, value):
        path = tmp_path / "timing.cfg"
        path.write_text(f"[suite]\ntiming = {value}\n[solver]\nname = AR2\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        with pytest.raises(ConfigError, match="timing: not on/off"):
            parse_config(path)

    @pytest.mark.parametrize("solver,line", [("AR2", "sigmaa0 = 2.0"),
                                             ("FAR2-PK", "theta2 = 0.2"),
                                             ("FAR2-SO", "eps = 0.1"),
                                             ("AR2", "sigma0 = -1.0"),
                                             ("AR2", "j_max = ten")])
    def test_bad_solver_key_or_value(self, tmp_path, solver, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[solver]\nname = {solver}\n{line}\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        with pytest.raises(ConfigError, match=solver):
            parse_config(path)

    @pytest.mark.parametrize("text,key", [
        ("[suite]\njobs = two\n", "jobs"),
        ("[suite]\nseed = 1.5\n", "seed"),
        ("[problem]\nname = QUAD\nn = ten\n", "n"),
        ("[problem]\nkind = logistic\nN = many\n", "N"),
        ("[problem]\nname = QUAD\nn = 4\nseed = x\n", "seed"),
    ])
    def test_bad_integer(self, tmp_path, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text("[solver]\nname = AR2\n[problem]\nname = QUAD\n"
                        "n = 4\n" + text)
        with pytest.raises(ConfigError, match=f"{key}: not an integer"):
            parse_config(path)

    def test_repeated_solver_section(self, tmp_path):
        # a second section of a name would share the first one's overrides
        path = tmp_path / "twice.cfg"
        path.write_text("[solver]\nname = FAR2-PK\nsigma0 = 2.0\n"
                        "[solver]\nname = FAR2-PK\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        with pytest.raises(ConfigError, match="FAR2-PK"):
            parse_config(path)

    def test_name_fixes_the_space(self, tmp_path):
        path = tmp_path / "space.cfg"
        path.write_text("[solver]\nname = FAR2-PK\nspace_kind = rational\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        with pytest.raises(ConfigError, match="FAR2-PK: .*space_kind"):
            parse_config(path)

    def test_samples_is_not_n(self, tmp_path):
        path = tmp_path / "samples.cfg"
        path.write_text("[solver]\nname = AR2\n"
                        "[problem]\nkind = logistic\nsamples = 50\nn = 4\n")
        with pytest.raises(ConfigError, match="samples"):
            parse_config(path)

    def test_second_order_solver_keys(self, tmp_path):
        path = tmp_path / "so.cfg"
        path.write_text("[solver]\nname = FAR2-SO\ntheta2 = 0.2\neps_h = 1e-3\n"
                        "[problem]\nname = QUAD\nn = 4\n")
        cfg = parse_config(path)
        assert cfg.solver_overrides["FAR2-SO"] == {"theta2": 0.2, "eps_H": 1e-3}


EXPERIMENTS_DIR = Path(__file__).resolve().parent.parent / "experiments"
EXPERIMENTS = sorted(EXPERIMENTS_DIR.glob("*.cfg"))


@pytest.mark.parametrize("path", EXPERIMENTS, ids=[p.name for p in EXPERIMENTS])
def test_shipped_experiment_configs_parse(path):
    cfg = parse_config(path)
    assert cfg.solvers and set(cfg.solvers) <= set(SOLVERS)
    assert cfg.problems
    for spec in cfg.problems:
        assert build_problem(spec).n == spec.n


def test_experiment_configs_shipped():
    assert {p.name for p in EXPERIMENTS} >= {
        "registry-100.cfg", "classify.cfg", "criterion-1.cfg", "criterion-3.cfg"}


def test_criterion_1_suite_is_the_registry_at_100_and_500():
    cfg = parse_config(EXPERIMENTS_DIR / "criterion-1.cfg")
    assert cfg.solvers == ["AR2", "FAR2-PK"]
    assert [(p.name, p.n) for p in cfg.problems] == [
        (name, n) for name in registry_names() for n in (100, 500)]
