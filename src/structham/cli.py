"""Command-line harness: run / sweep / drift / coeffs subcommands.

Exit codes: 0 success, 2 configuration error, 3 solver failure
(non-convergence, divergence or a singularity of the physical equations).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .blocksolver import DivergenceError, NonConvergenceError
from .harness import QUANTITIES, STRUCTURAL_SCHEMES, SV_SCHEMES, RunConfig, SweepResult, _report_row, run, sweep
from .numerics import DDOUBLE, NATIVE, PRECISIONS
from .problems import PROBLEM_NAMES, SingularityError
from .secoeff import ConfigurationError, Formulation, coeff_table, dump_coeff_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _add_run_args(p, with_n=True):
    p.add_argument("--problem", required=True, choices=sorted(PROBLEM_NAMES))
    p.add_argument("--scheme", required=True, choices=STRUCTURAL_SCHEMES + SV_SCHEMES)
    p.add_argument("--R", type=int, default=None, help="block size (structural schemes)")
    if with_n:
        p.add_argument("--N", type=int, required=True, help="number of time steps")
    p.add_argument("--T", type=float, required=True, help="final time")
    p.add_argument("--tol", type=float, default=None,
                   help=f"fixed-point tolerance (default {NATIVE.default_tol:g} {NATIVE.name} / "
                        f"{DDOUBLE.default_tol:g} {DDOUBLE.name})")
    p.add_argument("--precision", choices=sorted(PRECISIONS), default="double")
    p.add_argument("--project-lrl", action="store_true",
                   help="project onto the LRL invariant manifold (kepler only)")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--manifest", default=None, help="write a JSON run manifest here")


def _config_from_args(args, N=None) -> RunConfig:
    return RunConfig(
        problem=args.problem,
        scheme=args.scheme,
        N=args.N if N is None else N,
        T=args.T,
        R=args.R,
        tol=args.tol,
        precision=args.precision,
        project_lrl=args.project_lrl,
    )


@contextlib.contextmanager
def _output(path):
    """The stream a command writes to: the file ``path``, or stdout without one."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    args.record = vars(config)
    report = run(config)
    parts = [f"problem={config.problem}", f"scheme={config.scheme}"]
    if config.R is not None:
        parts.append(f"R={config.R}")
    parts += [f"N={config.N}", f"T={config.T}", f"dt={report.dt:.5e}"]
    parts += [f"e{q}={report.errors[q]:.5e}" for q in QUANTITIES if q in report.errors]
    parts += [
        f"total_iter={report.total_iter}",
        f"nb_iter_avg={report.nb_iter_avg:.5e}",
        f"nb_call_avg={report.nb_call_avg:.5e}",
    ]
    print(" ".join(parts))
    if args.out:
        with _output(args.out) as fh:
            fh.write(SweepResult([_report_row(config, report)]).to_csv())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    Ns = [int(v) for v in args.Ns.split(",") if v.strip()]
    if not Ns:
        raise ConfigurationError(f"--Ns {args.Ns!r} lists no step count")
    config = _config_from_args(args, N=Ns[0])
    args.record = {key: value for key, value in vars(config).items() if key != "N"} | {"Ns": Ns}
    text = sweep(config, Ns).to_csv()
    with _output(args.out) as fh:
        fh.write(text)
    return EXIT_OK


def _cmd_drift(args) -> int:
    config = _config_from_args(args)
    args.record = vars(config) | {"quantity": args.quantity, "samples": args.samples}
    series = run(config, (args.quantity,), args.samples).drift[args.quantity]
    lines = ["t,deviation"] + [f"{t:.5e},{dev:.5e}" for t, dev in series]
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    table = coeff_table(args.R, Formulation.parse(args.formulation), args.dt,
                        PRECISIONS[args.precision])
    with _output(args.out) as fh:
        dump_coeff_csv(table, fh)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated options, on the subparsers too: sweep's --N 20 is not --Ns 20
    parser = argparse.ArgumentParser(
        prog="structham",
        description="Block-implicit structural schemes for Hamiltonian systems",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration and report errors", allow_abbrev=False)
    _add_run_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="error/order table over a list of N", allow_abbrev=False)
    _add_run_args(p_sweep, with_n=False)
    p_sweep.add_argument("--Ns", required=True, help="comma-separated, strictly ascending step counts")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_drift = sub.add_parser("drift", help="invariant deviation over time", allow_abbrev=False)
    _add_run_args(p_drift)
    p_drift.add_argument("--quantity", default="H", choices=QUANTITIES[1:])  # the invariants
    p_drift.add_argument("--samples", type=int, default=200, help="evenly spaced nodes sampled (at least 1)")
    p_drift.set_defaults(func=_cmd_drift)

    p_coeffs = sub.add_parser(
        "coeffs", help="dump a structural coefficient table as CSV (32 significant digits)",
        allow_abbrev=False)
    p_coeffs.add_argument("--formulation", required=True, choices=["zd", "zds"])
    p_coeffs.add_argument("--R", type=int, required=True)
    p_coeffs.add_argument("--dt", type=float, default=1.0)
    p_coeffs.add_argument("--precision", choices=sorted(PRECISIONS), default="double")
    p_coeffs.add_argument("--out", default=None)
    p_coeffs.set_defaults(func=_cmd_coeffs)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (ConfigurationError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, DivergenceError, SingularityError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        code = EXIT_SOLVER
    # the harness accepted the run: it returned, or a solver failure ended it;
    # the manifest records its configuration and the command's own arguments
    if getattr(args, "manifest", None):
        with _output(args.manifest) as fh:
            fh.write(json.dumps(args.record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
