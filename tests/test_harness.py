"""Harness and CLI tests: runs, sweeps, drift series, CSV, exit codes."""

import dataclasses
import json
import math

import numpy as np
import pytest

from structham import cli, harness
from structham.baselines import integrate_sv
from structham.blocksolver import integrate
from structham.cli import build_parser, main as cli_main
from structham.harness import (
    CHUNK,
    CSV_COLUMNS,
    NOISE_ULPS,
    RunConfig,
    convergence_order,
    run,
    sweep,
)
from structham.numerics import PRECISIONS, max_abs
from structham.problems import SingularityError, build_problem, make_mass_spring
from structham.secoeff import ConfigurationError


def per_node_metrics(config, quantity=None, picks=()):
    """The errors of ``run`` as one call of each evaluator per node gives
    them, and the deviations of ``quantity`` at the node indices ``picks``."""
    prob = build_problem(config.problem, PRECISIONS[config.precision])
    errors, start, series = {}, {}, []

    def observe(idx, t, X, P):
        if prob.exact_solution is not None:
            errors["x"] = max(errors.get("x", 0.0), max_abs(X - prob.exact_solution(t)[0]))
        for inv in prob.invariants:
            q = inv.evaluator(X, P)
            dev = max_abs(q - start.setdefault(inv.name, q))
            errors[inv.name] = max(errors.get(inv.name, 0.0), dev)
            if inv.name == quantity and idx in picks:
                series.append((float(t), dev))

    if config.R is None:
        integrate_sv(prob, int(config.scheme[2:]), config.N, config.T, observer=observe)
    else:
        integrate(prob, config.scheme, config.R, config.N, config.T, observer=observe)
    return errors, series


class TestRunConfig:
    def test_valid(self):
        RunConfig(problem="kepler", scheme="zds", N=100, T=1.0, R=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(problem="nope", scheme="zd", N=10, T=1.0, R=1),
            dict(problem="kepler", scheme="rk4", N=10, T=1.0),
            dict(problem="kepler", scheme="zd", N=10, T=1.0),  # missing R
            dict(problem="kepler", scheme="sv2", N=10, T=1.0, R=2),  # R with sv
            dict(problem="kepler", scheme="zd", N=0, T=1.0, R=1),
            dict(problem="kepler", scheme="zd", N=10, T=-1.0, R=1),
            dict(problem="kepler", scheme="zd", N=10, T=math.inf, R=1),
            dict(problem="kepler", scheme="sv4", N=10, T=math.nan),
            dict(problem="kepler", scheme="zd", N=10, T=1.0, R=1, precision="quad"),
            dict(problem="pendulum", scheme="zd", N=10, T=1.0, R=1, project_lrl=True),
            dict(problem="kepler", scheme="zd", N=10, T=1.0, R=1, tol=-1.0),
            dict(problem="kepler", scheme="sv2", N=10, T=1.0, tol=math.nan),
            dict(problem="kepler", scheme="zds", N=10, T=1.0, R=1, max_iter=0),
            dict(problem="kepler", scheme="sv2", N=100, T=1.0, project_lrl=True),  # SV would ignore it
        ],
    )
    def test_invalid(self, kwargs):
        # a RunConfig checks itself when made, and again when replaced (each sweep row)
        with pytest.raises(ConfigurationError):
            RunConfig(**kwargs)
        base = RunConfig(problem="kepler", scheme="sv2", N=100, T=1.0)  # every other field its default
        with pytest.raises(ConfigurationError):
            dataclasses.replace(base, **kwargs)


class TestRun:
    def test_mass_spring_reference(self):
        report = run(RunConfig(problem="mass_spring", scheme="zds", N=960, T=100.0, R=1))
        assert report.errors["x"] == pytest.approx(1.41e-5, rel=2.0)
        assert report.errors["H"] < 1e-11
        assert report.nb_call_avg == 1 * report.nb_iter_avg  # R = 1

    def test_position_error_absent_without_reference(self):
        report = run(RunConfig(problem="kepler", scheme="zds", N=48, T=2.0, R=2))
        assert "x" not in report.errors
        assert set(report.errors) == {"H", "L", "A"}

    def test_pendulum_endpoint_mode(self):
        report = run(RunConfig(problem="pendulum", scheme="zds", N=960, T=100.0, R=2))
        assert report.errors["x"] == pytest.approx(6.93e-9, rel=2.0)
        # endpoint reference only exists at T=100
        report = run(RunConfig(problem="pendulum", scheme="zds", N=96, T=10.0, R=2))
        assert "x" not in report.errors

    @pytest.mark.parametrize("config", [
        RunConfig(problem="mass_spring", scheme="zds", N=600, T=20.0, R=3),
        RunConfig(problem="mass_spring", scheme="zds", N=300, T=5.0, R=2, precision="ddouble"),
        RunConfig(problem="two_spring", scheme="sv4", N=2 * CHUNK - 1, T=5.0),
        RunConfig(problem="kepler", scheme="zds", N=CHUNK, T=8.0, R=2),
        RunConfig(problem="outer_solar", scheme="sv6", N=600, T=25000.0),
        RunConfig(problem="three_body_eight", scheme="zds", N=300, T=6.0, R=2),
        RunConfig(problem="em_challenging", scheme="zds", N=300, T=2.0, R=3),
    ], ids=lambda c: f"{c.problem}-{c.scheme}-{c.N}-{c.precision}")
    def test_chunked_metrics_equal_per_node_evaluation(self, config):
        # runs of one, two and three chunks, the last one full or not
        assert run(config).errors == per_node_metrics(config)[0]

    def test_sv_run_counts_calls(self):
        report = run(RunConfig(problem="mass_spring", scheme="sv2", N=96, T=10.0))
        assert report.total_iter == 0  # separable: no implicit solves
        assert report.nb_call_avg == (96 + 1) / 96  # one force per stage and one at t = 0


class TestConvergenceOrder:
    def test_halving(self):
        assert convergence_order(2.0, 1.0, 0.2, 0.1) == pytest.approx(1.0)

    def test_table_row_value(self):
        assert convergence_order(5.43e-2, 3.57e-3, 1.0 / 240, 1.0 / 480) == pytest.approx(
            3.9, abs=0.05
        )

    def test_sign_convention(self):
        assert convergence_order(1.0, 16.0, 0.2, 0.1) == pytest.approx(-4.0)

    def test_zero_error_sentinel(self):
        assert math.isnan(convergence_order(0.0, 1e-5, 0.2, 0.1))

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            convergence_order(1.0, 0.5, 0.1, 0.1)


class TestSweep:
    def test_table_shape_and_orders(self):
        base = RunConfig(problem="mass_spring", scheme="zd", N=120, T=100.0, R=2)
        result = sweep(base, [120, 240, 480, 960])
        assert len(result.rows) == 4
        errs = [row["ex"] for row in result.rows]
        for got, ref in zip(errs, [7.22e-1, 5.43e-2, 3.57e-3, 2.25e-4]):
            assert ref / 3 <= got <= ref * 3
        for got, ref in zip([row["ordx"] for row in result.rows[1:]], [3.7, 3.9, 4.0]):
            assert abs(got - ref) <= 0.4

    def test_noise_floor_scale_spans_the_orbit(self, monkeypatch):
        # x = sin t over [0, pi]: both end nodes sit near 0 and the orbit
        # reaches 1.  The position scale is the largest |X| over every node,
        # so two roundoff-level errors print no order (the end nodes' scale
        # printed -1.92)
        monkeypatch.setattr(harness, "build_problem",
                            lambda name, precision: make_mass_spring(x0=0.0, p0=1.0, precision=precision))
        base = RunConfig(problem="mass_spring", scheme="zds", N=128, T=math.pi, R=4)
        traj = integrate(make_mass_spring(x0=0.0, p0=1.0), "zds", 4, 128, math.pi)
        assert max(max_abs(traj.xs[0]), max_abs(traj.xs[-1])) < 1e-15
        assert run(base).scales["x"] == max(max_abs(X) for X in traj.xs) == pytest.approx(1.0)
        rows = sweep(base, [128, 256]).rows
        assert all(row["ex"] <= NOISE_ULPS * 128 * 2.0**-53 for row in rows)
        assert "ordx" not in rows[1] and "ordH" not in rows[1]

    def test_single_row_no_orders(self):
        result = sweep(RunConfig(problem="mass_spring", scheme="zds", N=60, T=10.0, R=1), [60])
        assert "ordx" not in result.rows[0]

    def test_orders_recomputable_from_csv(self):
        base = RunConfig(problem="mass_spring", scheme="zds", N=120, T=100.0, R=1)
        result = sweep(base, [120, 240])
        lines = result.to_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header == CSV_COLUMNS
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        e1, e2 = float(rows[0]["ex"]), float(rows[1]["ex"])
        dt1, dt2 = float(rows[0]["dt"]), float(rows[1]["dt"])
        assert float(rows[1]["ordx"]) == pytest.approx(
            convergence_order(e1, e2, dt1, dt2), abs=5e-5
        )

    def test_noise_floor_orders_left_empty(self):
        # at R = 12 and dt ~ 1e-2 both errors are roundoff (ex about 1e-14
        # over 96 steps, under NOISE_ULPS N u): no order, as for an
        # unavailable quantity, while ex is printed as before
        result = sweep(RunConfig(problem="mass_spring", scheme="zds", N=96, T=1.0, R=12), [96, 120])
        row = result.rows[1]
        assert row["ex"] <= NOISE_ULPS * 120 * 2.0**-53 and "ordx" not in row and "ordH" not in row
        fields = dict(zip(CSV_COLUMNS, result.to_csv().splitlines()[2].split(",")))
        assert fields["ordx"] == fields["ordH"] == "" and fields["ex"] == f"{row['ex']:.5e}"
        # at R = 1 and dt = 0.83 the position error is truncation, the energy
        # error roundoff
        result = sweep(RunConfig(problem="mass_spring", scheme="zds", N=120, T=100.0, R=1), [120, 240])
        assert result.rows[1]["ordx"] == pytest.approx(4.0, abs=0.1) and "ordH" not in result.rows[1]

    def test_failed_row_tagged_and_sweep_continues(self):
        # the coarse EM configuration diverges; the fine one succeeds
        base = RunConfig(problem="em_scb", scheme="zds", N=1, T=0.02, R=1)
        result = sweep(base, [2, 200])
        assert result.rows[0]["status"].startswith("error:")
        assert result.rows[1]["status"] == "ok"
        assert "eH" in result.rows[1]

    def test_configuration_error_propagates(self):
        # N < R in the first row is no solver failure: no row, no table
        with pytest.raises(ConfigurationError, match="need N >= R"):
            sweep(RunConfig(problem="mass_spring", scheme="zds", N=2, T=1.0, R=4), [2, 8])

    def test_determinism(self):
        base = RunConfig(problem="pendulum", scheme="zds", N=60, T=10.0, R=2)
        a = sweep(base, [60, 120]).to_csv()
        b = sweep(base, [60, 120]).to_csv()
        assert a == b

    def test_ns_must_ascend(self):
        with pytest.raises(ConfigurationError):
            sweep(RunConfig(problem="pendulum", scheme="zds", N=1, T=1.0, R=1), [20, 10])

    def test_repeated_ns_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ConfigurationError, match="Ns must be strictly ascending"):
            sweep(RunConfig(problem="mass_spring", scheme="zds", N=20, T=1.0, R=2), [20, 20])
        assert runs == []

    def test_accounting_identity_in_rows(self):
        base = RunConfig(problem="pendulum", scheme="zds", N=60, T=10.0, R=3)
        for row in sweep(base, [60, 120]).rows:
            assert row["nb_call_avg"] == pytest.approx(3 * row["nb_iter_avg"], rel=1e-12)


class TestDriftSeries:
    def test_series_shape_and_sampling(self):
        config = RunConfig(problem="pendulum", scheme="zds", N=600, T=30.0, R=2)
        series = run(config, ("H",), 40).drift["H"]
        assert len(series) == 40
        ts = [t for t, _ in series]
        assert ts == sorted(ts)
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(30.0)
        assert all(dev >= 0 for _, dev in series)

    @pytest.mark.parametrize("quantity, samples", [("A", 37), ("L", 601), ("H", 1000)])
    def test_samples_equal_per_node_deviations(self, quantity, samples):
        config = RunConfig(problem="kepler", scheme="zds", N=600, T=20.0, R=2)
        assert config.N + 1 > 2 * CHUNK  # three chunks
        picks = set(np.round(np.linspace(0, config.N, min(samples, config.N + 1))).astype(int).tolist())
        series = run(config, (quantity,), samples).drift[quantity]
        assert len(series) == len(picks)
        assert series == per_node_metrics(config, quantity, picks)[1]

    def test_unknown_quantity(self):
        config = RunConfig(problem="pendulum", scheme="zds", N=10, T=1.0, R=1)
        with pytest.raises(ConfigurationError):
            run(config, ("L",))

    def test_run_rejects_unknown_quantity_before_integrating(self, monkeypatch):
        monkeypatch.setattr(harness, "integrate", lambda *args, **kwargs: pytest.fail("integrated"))
        config = RunConfig(problem="pendulum", scheme="zds", N=10, T=1.0, R=1)
        with pytest.raises(ConfigurationError, match="quantity 'Q' is not an invariant of pendulum"):
            run(config, drift_quantities=("Q",))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_run_rejects_fewer_than_one_sample(self, monkeypatch, samples):
        monkeypatch.setattr(harness, "integrate", lambda *args, **kwargs: pytest.fail("integrated"))
        config = RunConfig(problem="pendulum", scheme="zds", N=10, T=1.0, R=1)
        with pytest.raises(ConfigurationError, match="need drift_samples >= 1"):
            run(config, drift_quantities=("H",), drift_samples=samples)

    def test_equilibrium_start_stays_flat(self):
        # trivial dynamics: invariant deviation stays at rounding level
        from structham.blocksolver import SolverConfig, integrate
        from structham.problems import make_pendulum

        prob = make_pendulum(x0=0.0, p0=0.0)
        H0 = float(prob.hamiltonian(prob.x0, prob.p0))
        worst = [0.0]

        def obs(idx, t, X, P):
            worst[0] = max(worst[0], abs(float(prob.hamiltonian(X, P)) - H0))

        integrate(prob, "zds", 2, 64, 6.4, SolverConfig(), observer=obs)
        assert worst[0] <= 1e-15


class TestCli:
    def test_run_and_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli_main([
            "run", "--problem", "mass_spring", "--scheme", "zds", "--R", "1",
            "--N", "120", "--T", "10.0", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ex=" in printed and "nb_call_avg=" in printed
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_config_error_exit_code(self, capsys):
        assert cli_main([
            "run", "--problem", "pendulum", "--scheme", "zd",
            "--N", "10", "--T", "1.0",
        ]) == 2  # missing R

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--formulation", "zds", "--R", "2", "--dt", "1e200"],
        ["coeffs", "--formulation", "zds", "--R", "2", "--dt", "1e200", "--precision", "ddouble"],
        ["run", "--problem", "mass_spring", "--scheme", "zds", "--R", "2", "--N", "2", "--T", "2e200"],
    ])
    def test_overflowing_step_exit_code(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "dt=1e+200 overflows the order-2 coefficients" in captured.err + captured.out
        assert "inf" not in captured.out

    def test_solver_failure_exit_code(self, capsys):
        assert cli_main([
            "run", "--problem", "em_scb", "--scheme", "zds", "--R", "2",
            "--N", "10", "--T", "10.0",
        ]) == 3

    @pytest.mark.parametrize("scheme", ["zds", "sv2"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
    def test_bad_tol_is_a_configuration_error(self, scheme, tol, capsys):
        common = ["--problem", "mass_spring", "--scheme", scheme, "--T", "1", "--tol", tol]
        common += ["--R", "2"] if scheme == "zds" else []
        for argv in (["run", *common, "--N", "20"], ["drift", *common, "--N", "20"],
                     ["sweep", *common, "--Ns", "20,40"]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert "configuration error: need a finite tol > 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("Ns", ["", ",", " , "])
    def test_sweep_without_step_counts(self, Ns, capsys):
        assert cli_main([
            "sweep", "--problem", "mass_spring", "--scheme", "zds", "--R", "2", "--T", "1", "--Ns", Ns,
        ]) == 2
        captured = capsys.readouterr()
        assert "configuration error: --Ns" in captured.err and "lists no step count" in captured.err
        assert captured.out == ""

    def test_repeated_step_counts_exit_2(self, capsys):
        assert cli_main([
            "sweep", "--problem", "mass_spring", "--scheme", "zds", "--R", "2", "--T", "1", "--Ns", "20,20",
        ]) == 2
        captured = capsys.readouterr()
        assert "configuration error: Ns must be strictly ascending" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_drift_samples_below_one_exit_2(self, samples, capsys):
        assert cli_main([
            "drift", "--problem", "mass_spring", "--scheme", "zds", "--R", "2", "--N", "20", "--T", "1",
            "--samples", samples,
        ]) == 2
        captured = capsys.readouterr()
        assert f"configuration error: need drift_samples >= 1, got drift_samples={samples}" in captured.err
        assert captured.out == ""

    def test_configuration_error_in_a_sweep_row_exits_2(self, capsys):
        assert cli_main([
            "sweep", "--problem", "mass_spring", "--scheme", "zds", "--R", "4", "--T", "1", "--Ns", "2,8",
        ]) == 2
        captured = capsys.readouterr()
        assert "configuration error: need N >= R, got N=2, R=4" in captured.err and captured.out == ""

    def test_abbreviated_option_is_unrecognised(self, capsys):
        # --N is no option of sweep, and no abbreviation of --Ns
        with pytest.raises(SystemExit) as exit_:
            cli_main(["sweep", "--problem", "mass_spring", "--scheme", "zds", "--R", "2",
                      "--N", "20", "--T", "1", "--Ns", "20,40"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --N 20" in captured.err and captured.out == ""
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "--problem", "kepler", "--scheme", "zds", "--R", "2", "--N", "20",
                      "--T", "1", "--project"])
        assert exit_.value.code == 2

    def test_full_option_names_parse(self):
        parse = build_parser().parse_args
        common = ["--problem", "kepler", "--scheme", "zds", "--R", "2", "--T", "1.5", "--tol", "1e-13",
                  "--precision", "ddouble", "--project-lrl", "--out", "o.csv", "--manifest", "m.json"]
        args = parse(["sweep", *common, "--Ns", "20,40"])
        assert (args.Ns, args.R, args.T, args.tol, args.precision) == ("20,40", 2, 1.5, 1e-13, "ddouble")
        assert args.project_lrl and (args.out, args.manifest) == ("o.csv", "m.json")
        args = parse(["drift", *common, "--N", "20", "--quantity", "A", "--samples", "7"])
        assert (args.N, args.quantity, args.samples) == (20, "A", 7)
        assert parse(["run", *common, "--N", "20"]).N == 20
        args = parse(["coeffs", "--formulation", "zd", "--R", "3", "--dt", "0.5", "--precision", "double",
                      "--out", "c.csv"])
        assert (args.formulation, args.R, args.dt, args.out) == ("zd", 3, 0.5, "c.csv")

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli_main([
            "sweep", "--problem", "mass_spring", "--scheme", "zd", "--R", "2",
            "--T", "10.0", "--Ns", "24,48", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_drift_stdout(self, capsys):
        code = cli_main([
            "drift", "--problem", "pendulum", "--scheme", "zds", "--R", "1",
            "--N", "60", "--T", "6.0", "--quantity", "H", "--samples", "10",
        ])
        assert code == 0
        outp = capsys.readouterr().out
        assert outp.startswith("t,deviation")
        assert len(outp.strip().split("\n")) == 11

    def test_coeffs_dump(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        code = cli_main([
            "coeffs", "--formulation", "zds", "--R", "1", "--dt", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text().strip().split("\n")
        assert text[0] == "formulation,R,m,r,s,value"
        assert len(text) == 7

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--R", "2", "--T", "1", "--Ns", "20,20"], 2),
        (["drift", "--R", "2", "--N", "20", "--T", "1", "--samples", "0"], 2),
        (["drift", "--R", "2", "--N", "20", "--T", "1", "--quantity", "L"], 2),
        (["sweep", "--R", "4", "--T", "1", "--Ns", "2,8"], 2),  # N < R, raised in integrate
        (["run", "--R", "13", "--N", "26", "--T", "1"], 2),
        (["drift", "--R", "2", "--N", "20", "--T", "1"], 0),
        (["run", "--R", "2", "--N", "10", "--T", "10.0", "--problem", "em_scb"], 3),
        (["run", "--R", "2", "--N", "10", "--T", "10.0", "--problem", "em_scb"],
         SingularityError("bodies 0 and 1 collide")),
    ])
    def test_manifest_only_for_accepted_runs(self, argv, code, tmp_path, capsys, monkeypatch):
        # the harness accepts a run when it returns or a solver failure ends
        # it; ``code`` is the exit code, or a solver failure the run raises
        if isinstance(code, Exception):
            error, code = code, 3

            def run(*args):
                raise error

            monkeypatch.setattr(cli, "run", run)
        manifest = tmp_path / "m.json"
        problem = [] if "--problem" in argv else ["--problem", "mass_spring"]
        assert cli_main([*argv, *problem, "--scheme", "zds", "--manifest", str(manifest)]) == code
        assert manifest.exists() == (code != 2)
        if code == 3:
            assert json.loads(manifest.read_text())["problem"] == "em_scb"
            assert capsys.readouterr().err.startswith("solver failure: ")

    def test_manifest_records_the_command(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        common = ["--problem", "mass_spring", "--scheme", "zds", "--R", "2", "--T", "1",
                  "--manifest", str(manifest)]
        assert cli_main(["sweep", *common, "--Ns", "20,40"]) == 0
        blob = json.loads(manifest.read_text())
        assert blob["Ns"] == [20, 40] and "N" not in blob
        assert cli_main(["drift", *common, "--N", "20", "--quantity", "H", "--samples", "5"]) == 0
        blob = json.loads(manifest.read_text())
        assert (blob["N"], blob["quantity"], blob["samples"]) == (20, "H", 5)

    def test_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        cli_main([
            "run", "--problem", "mass_spring", "--scheme", "zds", "--R", "1",
            "--N", "24", "--T", "2.0", "--manifest", str(manifest),
        ])
        blob = json.loads(manifest.read_text())
        assert blob["problem"] == "mass_spring"
        assert blob["N"] == 24
