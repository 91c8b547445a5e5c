"""structham benchmark: one workload (or all four) timed, traced and checked.

    python3 perfbench/run.py --workload pendulum-long --seed 1 --seconds 25 --trace 0

Run it from the repository root.  ``--trace 0`` times units of the workload
with nothing patched and prints the end-to-end metrics; ``--trace 1`` runs
pairs of untraced and traced units and prints the per-layer metrics.
``--workload all`` runs the four workloads one after another in this one
process.  Every integration is checked against an independent reference
after the timed section.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HOLDOUT_SEED = 9001  # kept out of tuning; use it to confirm a claimed gain
SETUP_PROBES = 5
MIN_UNITS = 5
# Raw wall time swings by up to +-20% between runs on a shared host, more
# than any allowed bound, so it is printed but left out of the JSON result;
# cpu_rel carries the unit's cost relative to the reference kernel.
PRINTED_ONLY = ("wall_s",)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "structham").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args, workload) -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workload": workload.name,
        "config": workload.config(),
    }


def setup_times(workload, count: int) -> list:
    """Wall time of ``count`` fresh processes that import, build and tabulate."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload.name, str(workload.seed)]
    if workload.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms,
        # which would round the measured times to that step
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def _two_sum(a: float, b: float):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


class _Pair:
    """Unevaluated float sum, operated on through methods that allocate."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi, self.lo = _two_sum(hi, lo)

    def __add__(self, other):
        s, e = _two_sum(self.hi, other.hi)
        return _Pair(s, e + self.lo + other.lo)


def reference_kernel() -> float:
    """Fixed work that uses no structham code, timed between units.

    The mix of the workloads: tiny and small numpy calls, plain float
    arithmetic through function calls and tuples, and small objects made by
    arithmetic methods.  Machine-wide slowdowns on a shared host stretch it
    about as much as they stretch a unit.
    """
    tiny = np.ones((1, 1))
    small = np.ones((3, 6, 6))
    step = _Pair(1e-3, 1e-20)
    acc = _Pair(0.0)
    total = 0.0
    for _ in range(4_000):
        total += float(np.max(np.abs(tiny * 1.0000001 + 0.5)))
        total += float((small * 1.0000001 - 0.5).sum(axis=2).max())
        for _ in range(6):
            acc = acc + step
    return total + acc.hi + acc.lo


def run_units(workload, seconds: float, min_units: int, records: list):
    """Run units until ``seconds`` have passed and at least ``min_units`` ran.

    The reference kernel runs before the first unit and after every unit.
    Returns each unit's wall time, and its CPU time over the mean CPU time of
    the two kernel runs around it.  CPU time leaves out the time the host
    takes the CPU away; the ratio cancels the host's slower phases.
    """
    walls, ratios = [], []
    c0 = time.process_time()
    reference_kernel()
    before = time.process_time() - c0
    deadline = time.perf_counter() + seconds
    while len(walls) < min_units or time.perf_counter() < deadline:
        t0, c0 = time.perf_counter(), time.process_time()
        records.extend(workload.unit())
        t1, c1 = time.perf_counter(), time.process_time()
        reference_kernel()
        after = time.process_time() - c1
        walls.append(t1 - t0)
        ratios.append((c1 - c0) / (0.5 * (before + after)))
        before = after
    return walls, ratios


def end_to_end(args, workload, records) -> dict:
    setup = setup_times(workload, 1 if args.smoke else SETUP_PROBES)
    workload.setup()
    records.extend(workload.unit())  # warm-up: caches filled, lazy set-up done
    walls, ratios = run_units(workload, args.seconds, 1 if args.smoke else MIN_UNITS, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = f"median of {len(walls)} units"
    return {
        "cpu_rel": (statistics.median(ratios), "ref", units + ", CPU time in reference-kernel times"),
        "wall_s": (statistics.median(walls), "s", units + " (printed, not gated)"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} processes"),
        "peak_rss_mb": (peak_rss_mb, "MB", "process high-water mark"),
    }


def per_layer(args, workload, records) -> dict:
    """Trace the cold set-up, then alternate untraced and traced units.

    Alternating lets both units of a pair see the same machine load, so the
    median ratio over pairs gives the tracing overhead.
    """
    tracer = spans.Tracer()
    with tracer, tracer.root("bench.setup", 0):
        workload.setup()
    records.extend(workload.unit())  # warm-up
    tracer.problems = workload.instances
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        # swap the order every round: a unit runs at another speed right
        # after the other kind (collector state, respecialized call sites)
        for kind in ("plain", "traced")[:: 1 if len(traced) % 2 else -1]:
            t0 = time.perf_counter()
            if kind == "plain":
                records.extend(workload.unit())
                plain.append(time.perf_counter() - t0)
            else:
                with tracer, tracer.root(spans.ROOT, len(traced) + 1):
                    records.extend(workload.unit())
                traced.append(time.perf_counter() - t0)
    counter = spans.Tracer(workload.instances, count_dd=True)
    with counter, counter.root(spans.ROOT, 1):
        records.extend(workload.unit())
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{workload.seed}.npz")
    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    return layer_metrics(tracer, counter, workload, len(traced), overhead)


def layer_metrics(tracer, counter, workload, units: int, overhead: float) -> dict:
    """Per-unit layer metrics from the traced runs 1..units."""
    lt = spans.layer_times(tracer, range(1, units + 1))
    setup = spans.layer_times(tracer, [0])

    def self_s(*names, times=lt):
        return sum(times.get(n, {}).get("self", 0.0) for n in names) / (units if times is lt else 1)

    def calls(*names):
        return sum(lt.get(n, {}).get("count", 0) for n in names) / units

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    blocks = calls("blocksolver.solve_block")
    se_calls = calls("blocksolver.se_update")
    rhs_calls = calls("problems.rhs1", "problems.rhs2")
    se_s = self_s("blocksolver.se_update")
    rhs_s = self_s("problems.rhs1", "problems.rhs2")
    sv_rhs = spans.child_count(tracer, "problems.rhs1", "baselines.integrate_sv", range(1, units + 1)) / units
    root = lt[spans.ROOT]
    return {
        "secoeff.tables_built": (calls("secoeff.assemble_tables"), "count"),
        "secoeff.assemble_s": (self_s("secoeff.assemble_tables"), "s"),
        "secoeff.kernel_s": (self_s("secoeff.kernel_basis"), "s"),
        "secoeff.setup_s": (self_s(*spans.TABLE_SPANS, times=setup), "s"),
        "secoeff.dd_ops": (counter.dd["table_ops"], "count"),
        "blocksolver.blocks": (blocks, "count"),
        "blocksolver.sweeps_per_block": (ratio(se_calls, blocks), "sweeps/block"),
        "blocksolver.nonconverged": (tracer.errors.get("blocksolver.solve_block", 0) / units, "count"),
        "blocksolver.predictor_s": (self_s("blocksolver.init_block"), "s"),
        "blocksolver.se_s": (se_s, "s"),
        "blocksolver.se_us_per_call": (ratio(se_s, se_calls, 1e6), "us"),
        "blocksolver.pe_self_s": (self_s("blocksolver.pe_update"), "s"),
        "blocksolver.check_s": (self_s("blocksolver.check"), "s"),
        "blocksolver.solve_self_s": (self_s("blocksolver.solve_block"), "s"),
        "blocksolver.integrate_self_s": (self_s("blocksolver.integrate"), "s"),
        "problems.rhs1_calls": (calls("problems.rhs1"), "count"),
        "problems.rhs2_calls": (calls("problems.rhs2"), "count"),
        "problems.rhs_s": (rhs_s, "s"),
        "problems.rhs_us_per_call": (ratio(rhs_s, rhs_calls, 1e6), "us"),
        "problems.observer_s": (self_s("problems.observer"), "s"),
        "problems.build_s": (self_s("problems.build_problem"), "s"),
        "numerics.dd_ops": (counter.dd["ops"], "count"),
        "numerics.dd_objects": (counter.dd["objects"], "count"),
        "baselines.sv_s": (self_s("baselines.integrate_sv"), "s"),
        "baselines.rhs_calls_per_step": (ratio(sv_rhs, workload.sv_steps), "calls/step"),
        "harness.rows": (calls("harness.run"), "count"),
        "harness.run_self_s": (self_s("harness.run", "harness.sweep"), "s"),
        "harness.csv_s": (self_s("harness.csv"), "s"),
        "trace.unit_s": (root["total"] / units, "s"),
        "trace.covered_frac": (ratio(root["total"] - root["self"], root["total"]), "frac"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def measure(args, name: str):
    """Time (or trace) one workload; returns it with its metrics and records."""
    workload = workloads.WORKLOADS[name](args.seed, smoke=args.smoke)
    print("manifest " + json.dumps(manifest(args, workload), default=str), flush=True)
    records = []
    if args.trace:
        layers = per_layer(args, workload, records)
        metrics = {k: (v, unit, "per traced unit") for k, (v, unit) in layers.items()}
    else:
        metrics = end_to_end(args, workload, records)
    return workload, metrics, records


def report(args, workload, metrics, records) -> dict:
    """Check every record, then print the workload's metrics."""
    name = workload.name
    failures = [msg for msg in workload.check(records) if msg]
    for msg in failures[:10]:
        print(f"{name} FAILED {msg}", flush=True)
    attempted, failed = len(records), len(failures)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac", f"{attempted - failed} of {attempted} passed")
    for key, (value, unit, note) in metrics.items():
        print(f"{name:<20} {key:<32} {value:<14.6g} {unit:<12} {note}", flush=True)
    failed_frac = failed / attempted
    print(f"{name:<20} {'failed_frac':<32} {failed_frac:<14.6g} {'frac':<12} {failed} of {attempted} failed",
          flush=True)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="one of %s, or all" % ", ".join(NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny N, one unit: checks the plumbing only")
    args = parser.parse_args(argv)
    names = NAMES if args.workload == "all" else [args.workload]
    if any(n not in NAMES for n in names):
        parser.error(f"unknown workload {args.workload!r}")

    # every workload is timed before any check imports scipy or mpmath,
    # so that peak_rss_mb stays the library's own
    measured = [measure(args, name) for name in names]
    results = {m[0].name: report(args, *m) for m in measured}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
        for name, r in results.items()
        for key, (value, unit, _) in r["metrics"].items()
        if key not in PRINTED_ONLY
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "structham" / "__init__.py").is_file():
        print(f"error: no structham sources under {SRC}; run from a structham checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import structham

    if Path(structham.__file__).resolve().parent != SRC / "structham":
        print(f"error: imported structham from {structham.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import spans
    import workloads

    NAMES = list(workloads.WORKLOADS)
    sys.exit(main())
