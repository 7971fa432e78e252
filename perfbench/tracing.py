"""Span tracing for the traced benchmark run, installed from outside.

The program under test is not edited: :func:`install` replaces the public
entry points of each layer (class methods, and the codec functions the live
runtime resolves in its own module namespace) with wrappers that record a
span — name, start, end, parent span and operation id — and restores the
originals on :meth:`Installed.undo`.  Spans stay in memory; the caller
writes them out after the run.

Self time is a span's duration minus the spans nested in it *on the same
thread*; a span opened on a thread with no open span (a live-runtime site
thread, the serving dispatcher) takes the operation's root span as its
parent but does not subtract from it, because it runs concurrently.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter

from repro.parallel import SubsystemExecutor


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "op", "tid", "child", "calls_in")

    def __init__(self, name, t0, parent, op, tid):
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.op = op
        self.tid = tid
        self.child = 0.0  # time covered by same-thread child spans
        self.calls_in = 0  # executor fan-outs seen inside a dse.run span

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.t1 - self.t0 - self.child


class Tracer:
    """In-memory span recorder; inert until :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None  # id stamped on every span opened while set
        self.root: Span | None = None  # parent of cross-thread spans
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self) -> Span | None:
        st = self._stack()
        return st[-1] if st else None

    def start(self, name: str) -> Span:
        st = self._stack()
        parent = st[-1] if st else self.root
        sp = Span(name, perf_counter(), parent, self.op, threading.get_ident())
        st.append(sp)
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = perf_counter()
        self._stack().pop()
        p = sp.parent
        if p is not None and p.tid == sp.tid:
            p.child += sp.t1 - sp.t0
        with self._lock:
            self.spans.append(sp)

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    # -- aggregation ----------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, inclusive seconds, self seconds)``."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sp in self.spans:
            t = out[sp.name]
            t[0] += 1
            t[1] += sp.duration
            t[2] += sp.self_time
        return {k: tuple(v) for k, v in out.items()}

    def nesting_error(self) -> float:
        """Largest gap, in seconds, between a same-thread span tree's root
        duration and the sum of the self times inside it (0 when spans
        nest properly)."""
        roots: dict[int, float] = {}
        sums: dict[int, float] = defaultdict(float)
        for sp in self.spans:
            r = sp
            while r.parent is not None and r.parent.tid == r.tid:
                r = r.parent
            sums[id(r)] += sp.self_time
            if r is sp:
                roots[id(r)] = sp.duration
        return max((abs(roots[k] - sums[k]) for k in roots), default=0.0)

    def dump(self, path) -> None:
        """Write one JSON record per span; ``parent`` indexes the list."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": sp.name, "t0": sp.t0, "t1": sp.t1,
                    "parent": index.get(id(sp.parent), -1), "op": sp.op,
                    "tid": sp.tid,
                }) + "\n")


class TimingExecutor(SubsystemExecutor):
    """Serial executor that spans each DSE fan-out.

    The first ``map`` inside a ``dse.run`` span is Step 1; every later one
    is a Step-2 round.  Runs tasks inline, in order, exactly as
    :class:`repro.parallel.SerialExecutor` does.
    """

    n_workers = 1

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def map(self, fn, items) -> list:
        tr = self.tracer
        if not tr.active:
            return [fn(item) for item in items]
        run = tr.current()
        name = "dse.fanout"
        if run is not None and run.name == "dse.run":
            name = "dse.step1" if run.calls_in == 0 else "dse.step2"
            run.calls_in += 1
        sp = tr.start(name)
        try:
            return [fn(item) for item in items]
        finally:
            tr.end(sp)


class Installed:
    """Handle for wrappers put in place by :func:`install`."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, tracer: Tracer, owner, attr: str, name: str, post=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            sp = tracer.start(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(sp)
            if post is not None:
                post(tracer, sp, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def undo(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- post hooks: counts taken where the work happens --------------------------
def _post_wls(tr, sp, res):
    tr.count("estimation.wls.iterations", res.iterations)


def _post_batch(tr, sp, res):
    tr.count("estimation.batch.iterations", sum(r.iterations for r in res.results))
    tr.count("estimation.batch.scenarios", len(res.results))


def _post_dse_run(tr, sp, res):
    recs = list(res.records.values())
    s1 = [r.step1_time for r in recs]
    tr.count("dse.rounds", res.rounds)
    tr.count("dse.exchange_bytes", res.total_bytes_exchanged)
    tr.count("dse.step1.imbalance", max(s1) / (sum(s1) / len(s1)))
    crit = max(s1)
    imb2 = []
    for r in range(res.rounds):
        t = [rec.step2_times[r] for rec in recs]
        crit += max(t)
        imb2.append(max(t) / (sum(t) / len(t)))
    tr.count("dse.step2.imbalance", sum(imb2) / max(1, len(imb2)))
    tr.count("dse.critical_path_ms", crit * 1e3)
    tr.count("dse.runs", 1)


def _post_live_run(tr, sp, res):
    busy = {
        s: st.step1_time + sum(st.step2_times) for s, st in res.sites.items()
    }
    wall = res.wall_time
    waits = [wall - b for b in busy.values()]
    tr.count("core.runtime.busy_over_wall", sum(busy.values()) / wall)
    tr.count("core.runtime.wait_ms", 1e3 * sum(waits) / len(waits))
    tr.count("core.runtime.wait_max_ms", 1e3 * max(waits))
    tr.count("middleware.fabric_setup.ms", 1e3 * (sp.duration - wall))
    tr.count("middleware.bytes", sum(st.bytes_sent for st in res.sites.values()))
    tr.count(
        "middleware.messages",
        sum(st.messages_received for st in res.sites.values()),
    )


def install(tracer: Tracer) -> Installed:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.cluster.executor import SimExecutor
    from repro.contingency.analysis import ContingencyAnalyzer
    from repro.core import runtime as core_runtime
    from repro.core.mapper import ClusterMapper
    from repro.core.runtime import LiveDseRuntime
    from repro.dse.algorithm import DistributedStateEstimator
    from repro.estimation.batch import BatchEstimator
    from repro.estimation.solvers import BatchGainSolver, GainSolver
    from repro.estimation.wls import WlsEstimator
    from repro.grid.network import Network
    from repro.grid.powerflow import DcCompensationSolver
    from repro.measurements.functions import JacobianStructure, MeasurementModel
    from repro.middleware.router import MiddlewareFabric

    inst = Installed()
    w = functools.partial(inst.wrap, tracer)
    w(MeasurementModel, "h", "measurements.h")
    w(MeasurementModel, "jacobian_reduced", "measurements.jacobian")
    w(MeasurementModel, "h_batch", "measurements.h_batch")
    w(JacobianStructure, "fill_batch", "measurements.fill_batch")
    w(GainSolver, "solve", "estimation.gain_solve")
    w(BatchGainSolver, "solve", "estimation.batch_gain")
    w(WlsEstimator, "__init__", "estimation.construct")
    w(WlsEstimator, "estimate", "estimation.wls", _post_wls)
    w(BatchEstimator, "estimate_batch", "estimation.batch", _post_batch)
    w(DistributedStateEstimator, "__init__", "dse.construct")
    w(DistributedStateEstimator, "run", "dse.run", _post_dse_run)
    w(ClusterMapper, "map_step1", "core.mapper")
    w(ClusterMapper, "remap_step2", "core.mapper")
    w(SimExecutor, "run_phase", "cluster.replay")
    w(SimExecutor, "run_exchange", "cluster.replay")
    w(LiveDseRuntime, "run", "core.runtime.run", _post_live_run)
    # the runtime imported the codecs by name: wrap them where it looks
    for fn in ("pack_state_update", "pack_condensed_update"):
        w(core_runtime, fn, "middleware.pack")
    for fn in ("unpack_state_update", "unpack_condensed_update"):
        w(core_runtime, fn, "middleware.unpack")
    w(MiddlewareFabric, "send_many", "middleware.send")
    w(MiddlewareFabric, "send", "middleware.send")
    w(Network, "fork", "grid.fork")
    w(DcCompensationSolver, "solve", "grid.dc_comp")
    w(ContingencyAnalyzer, "analyze_batch", "contingency.analyze_batch")
    return inst


#: per-op layer metrics read from span totals: name -> (span, field)
_SPAN_METRICS = {
    "measurements.h.calls": ("measurements.h", "calls"),
    "measurements.h.ms": ("measurements.h", "ms"),
    "measurements.jacobian.calls": ("measurements.jacobian", "calls"),
    "measurements.jacobian.ms": ("measurements.jacobian", "ms"),
    "measurements.h_batch.ms": ("measurements.h_batch", "ms"),
    "measurements.fill_batch.ms": ("measurements.fill_batch", "ms"),
    "estimation.gain_solve.calls": ("estimation.gain_solve", "calls"),
    "estimation.gain_solve.ms": ("estimation.gain_solve", "ms"),
    "estimation.wls.calls": ("estimation.wls", "calls"),
    "estimation.wls.self_ms": ("estimation.wls", "self_ms"),
    "estimation.construct.ms": ("estimation.construct", "ms"),
    "estimation.batch.ms": ("estimation.batch", "ms"),
    "estimation.batch_gain.ms": ("estimation.batch_gain", "ms"),
    "dse.construct.ms": ("dse.construct", "ms"),
    "dse.step1.ms": ("dse.step1", "ms"),
    "dse.step2.ms": ("dse.step2", "ms"),
    "core.mapper.ms": ("core.mapper", "ms"),
    "cluster.replay.ms": ("cluster.replay", "ms"),
    "middleware.pack.ms": ("middleware.pack", "ms"),
    "middleware.unpack.ms": ("middleware.unpack", "ms"),
    "middleware.send.ms": ("middleware.send", "ms"),
    "grid.fork.ms": ("grid.fork", "ms"),
    "grid.dc_comp.ms": ("grid.dc_comp", "ms"),
    "contingency.analyze_batch.ms": ("contingency.analyze_batch", "ms"),
}

#: per-op counters set by the post hooks (summed per operation)
_COUNTER_METRICS = (
    "estimation.wls.iterations",
    "dse.exchange_bytes",
    "dse.critical_path_ms",
    "dse.rounds",
    "core.runtime.busy_over_wall",
    "core.runtime.wait_ms",
    "core.runtime.wait_max_ms",
    "middleware.fabric_setup.ms",
    "middleware.bytes",
    "middleware.messages",
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from one traced run (0 for a layer the
    workload never entered)."""
    tot = tracer.totals()
    c = tracer.counters
    out: dict[str, float] = {}
    for key, (span, field) in _SPAN_METRICS.items():
        calls, incl, self_s = tot.get(span, (0, 0.0, 0.0))
        val = {"calls": calls, "ms": 1e3 * incl, "self_ms": 1e3 * self_s}[field]
        out[key] = val / n_ops
    for key in _COUNTER_METRICS:
        out[key] = c.get(key, 0.0) / n_ops
    runs = c.get("dse.runs", 0.0)
    for key in ("dse.step1.imbalance", "dse.step2.imbalance"):
        out[key] = c.get(key, 0.0) / runs if runs else 0.0
    dse_run = tot.get("dse.run", (0, 0.0, 0.0))[1]
    out["dse.exchange.ms"] = 1e3 * (
        dse_run
        - tot.get("dse.step1", (0, 0.0, 0.0))[1]
        - tot.get("dse.step2", (0, 0.0, 0.0))[1]
    ) / n_ops
    scen = c.get("estimation.batch.scenarios", 0.0)
    out["estimation.batch.iterations"] = (
        c.get("estimation.batch.iterations", 0.0) / scen if scen else 0.0
    )
    return out
