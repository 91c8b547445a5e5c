"""Span tracing from outside the library.

A ``Tracer`` replaces public functions of the structham modules with thin
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans live in compact in-memory arrays and are written out once,
when the run ends.  Every patched attribute is put back when the tracer's
``with`` block exits, also on error, so untraced runs see the original code.

A span's self time is its duration minus the durations of its direct
children; ``layer_times`` sums self times per span name and run.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from structham import baselines, blocksolver, harness, numerics, secoeff
from structham.problems import InvariantSpec

ROOT = "bench.unit"

# (owner, attribute, span name).  The blocksolver entries are the module
# globals that blocksolver itself calls, so its internal calls are traced;
# the harness entries are the names harness.run and harness.sweep call.
MODULE_SPANS = [
    (blocksolver, "integrate", "blocksolver.integrate"),
    (blocksolver, "solve_block", "blocksolver.solve_block"),
    (blocksolver, "init_block", "blocksolver.init_block"),
    (blocksolver, "se_update", "blocksolver.se_update"),
    (blocksolver, "pe_update", "blocksolver.pe_update"),
    (blocksolver, "max_abs", "blocksolver.check"),
    (blocksolver, "all_finite", "blocksolver.check"),
    (secoeff, "assemble_tables", "secoeff.assemble_tables"),
    (secoeff, "kernel_basis", "secoeff.kernel_basis"),
    (baselines, "integrate_sv", "baselines.integrate_sv"),
    (harness, "integrate", "blocksolver.integrate"),
    (harness, "integrate_sv", "baselines.integrate_sv"),
    (harness, "run", "harness.run"),
    (harness, "sweep", "harness.sweep"),
    (harness.SweepResult, "to_csv", "harness.csv"),
]
TABLE_SPANS = ("secoeff.assemble_tables", "secoeff.kernel_basis")

# DoubleDouble methods counted (no span) in a counting pass.
DD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__", "sqrt",
)


class Tracer:
    """Patches the library on ``__enter__`` and restores it on ``__exit__``.

    With ``count_dd`` the DoubleDouble arithmetic methods and constructor
    are wrapped by counters: ``ops`` and ``objects`` count calls made outside
    coefficient-table spans, ``table_ops`` both kinds made inside them.
    """

    def __init__(self, problems=(), count_dd: bool = False):
        self.problems = list(problems)
        self.count_dd = count_dd
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self.dd = {"ops": 0, "table_ops": 0, "objects": 0}
        self._stack = [-1]
        self._run_id = 0
        self._tables_open = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self._run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, run_id: int):
        """Open a root span that starts run ``run_id``."""
        self._run_id = run_id
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._nid(name)
        table = name in TABLE_SPANS
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            if table:
                tracer._tables_open += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] = tracer.errors.get(name, 0) + 1
                raise
            finally:
                if table:
                    tracer._tables_open -= 1
                tracer._close(i)

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap_problem(self, problem) -> None:
        """Trace a HamiltonianProblem's right-hand sides and observers."""
        self._patch(problem, "first_rhs", self.wrap(problem.first_rhs, "problems.rhs1"))
        self._patch(problem, "second_rhs", self.wrap(problem.second_rhs, "problems.rhs2"))
        if problem.exact_solution is not None:
            self._patch(problem, "exact_solution", self.wrap(problem.exact_solution, "problems.observer"))
        specs = tuple(
            InvariantSpec(spec.name, self.wrap(spec.evaluator, "problems.observer"))
            for spec in problem.invariants
        )
        self._patch(problem, "invariants", specs)

    def _dd_counter(self, fn, key_outside: str, key_tables: str):
        counts = self.dd
        tracer = self

        def counted(*args, **kwargs):
            counts[key_tables if tracer._tables_open else key_outside] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        try:
            for owner, attr, name in MODULE_SPANS:
                self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
            build = self.wrap(harness.build_problem, "problems.build_problem")

            def build_traced(*args, **kwargs):
                problem = build(*args, **kwargs)
                self.wrap_problem(problem)
                return problem

            self._patch(harness, "build_problem", build_traced)
            for problem in self.problems:
                self.wrap_problem(problem)
            if self.count_dd:
                DD = numerics.DoubleDouble
                for op in DD_OPS:
                    self._patch(DD, op, self._dd_counter(DD.__dict__[op], "ops", "table_ops"))
                self._patch(DD, "__init__", self._dd_counter(DD.__dict__["__init__"], "objects", "table_ops"))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_times(tracer: Tracer, runs) -> dict:
    """Per span name over the given run ids: total self time, total time, count."""
    a = tracer.arrays()
    n = len(a["name"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    keep = np.isin(a["run"], np.asarray(list(runs), dtype=np.int32))
    out = {}
    for nid, name in enumerate(tracer.names):
        sel = keep & (a["name"] == nid)
        out[name] = {
            "self": float(self_time[sel].sum()),
            "total": float(dur[sel].sum()),
            "count": int(sel.sum()),
        }
    return out


def child_count(tracer: Tracer, name: str, parent_name: str, runs) -> int:
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    if name not in tracer._ids or parent_name not in tracer._ids:
        return 0
    a = tracer.arrays()
    keep = np.isin(a["run"], np.asarray(list(runs), dtype=np.int32))
    sel = keep & (a["name"] == tracer._ids[name]) & (a["parent"] >= 0)
    return int((a["name"][a["parent"][sel]] == tracer._ids[parent_name]).sum())
