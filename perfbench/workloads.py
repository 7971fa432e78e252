"""The benchmark workloads.

Each workload builds every input from its seed before timing starts
(measurement frames, z vectors, outage deltas, arrival schedules), sets the
system under test up :data:`N_SETUP` times, measures, and then checks the
outputs outside the timed window.  See ``README.md`` for why each exists.
"""

from __future__ import annotations

import numpy as np

from repro.contingency import enumerate_n1
from repro.contingency.screening import outage_delta
from repro.core import ArchitecturePrototype, DseSession, LiveDseRuntime
from repro.dse import DistributedStateEstimator, decompose, dse_pmu_placement
from repro.estimation.wls import WlsEstimator
from repro.grid import run_ac_power_flow
from repro.grid.powerflow import PowerFlowError
from repro.grid.cases import case14, case118
from repro.measurements import ScadaSystem, full_placement, generate_measurements
from repro.measurements.scada import NoiseProcess
from repro.middleware.errors import DeadlineExceeded
from repro.serving import ContingencyRequest, EstimationRequest, ScenarioService

from harness import closed_loop, open_loop, poisson_schedule
from tracing import TimingExecutor

#: set-ups per run; ``setup_s`` is their median
N_SETUP = 3
#: distinct SCADA frames per IEEE-118 run (cycled); enough noise draws that
#: the run's median ``vm_rmse`` barely depends on the seed
N_FRAMES = 96
#: frames of a live118 run compared bit for bit with the in-process DSE
N_PARITY_FRAMES = 12
#: distinct what-if estimations of a run compared with a serial solve
N_PARITY_WHATIF = 40
#: accepted voltage-magnitude RMSE against the power-flow truth (p.u.)
VM_RMSE_BOUND = 3e-3
#: a DSE frame must finish within one SCADA scan period (the paper's
#: real-time requirement); what-if requests within 250 ms
DSE_LATENCY_LIMIT_S = 4.0
WHATIF_LATENCY_LIMIT_S = 0.25


def _vm_rmse(Vm, Vm_true) -> float:
    return float(np.sqrt(np.mean((np.asarray(Vm) - Vm_true) ** 2)))


class Measured:
    """What one timed window produced, before checks."""

    def __init__(self, latencies, wall_s, cpu_s, attempted, n_completed, errors):
        self.latencies = list(latencies)  # seconds, completed operations
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.attempted = attempted
        self.n_completed = n_completed
        self.errors = list(errors)
        self.bad = 0  # completed operations that failed an output check
        self.vm_rmse: list[float] = []
        # set by the workload's check: completions per second, and those
        # that passed their check within the latency limit per second
        self.throughput = float("nan")
        self.goodput = float("nan")
        self.serving: dict = {}


# -- closed loops ----------------------------------------------------------------
class _ClosedLoop:
    """One caller cycling pre-generated IEEE-118 SCADA frames."""

    latency_limit_s = DSE_LATENCY_LIMIT_S
    #: fixed per workload, so commits compare the same percentile: the
    #: highest of p50/p75/p90/p95/p99 that leaves at least ten samples
    #: beyond it in one run on a 2-core host
    tail_pct = 75

    def __init__(self, seed: int, tiny: bool, tracer):
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer

    def make_inputs(self, windows: list[float]) -> None:
        """Seeded SCADA frames over the DSE measurement placement."""
        net = case14() if self.tiny else case118()
        self.net = net
        self.m = 2 if self.tiny else 9
        self.dec = decompose(net, self.m, seed=0)
        placement = full_placement(net).merged_with(dse_pmu_placement(self.dec))
        # independent per-frame noise levels (theta=1): Gaussian around
        # nominal meter accuracy, so a run's accuracy does not hinge on one
        # slow swing of a correlated noise process
        noise = NoiseProcess(theta=1.0, sigma=0.15)
        scada = ScadaSystem(net, placement, noise=noise, seed=self.seed)
        self.frames = scada.frames(4 if self.tiny else N_FRAMES)
        self.mset0 = self.frames[0].mset
        self.n_inputs = len(self.frames)

    def teardown(self, sut) -> None:
        pass

    def measure(self, sut, seconds: float, traced: bool, window: int = 0) -> Measured:
        tr = self.tracer
        hooks = {}
        if traced:
            def before(i):
                tr.op = f"{window}:{i}"
                tr.root = tr.start("op")

            def after(i):
                tr.end(tr.root)
                tr.root = None
                tr.op = None

            hooks = {"before": before, "after": after}
        loop = closed_loop(
            lambda k: self.op(sut, k), self.n_inputs, seconds, **hooks
        )
        m = Measured(
            loop.latencies, loop.wall_s, loop.cpu_s, loop.attempted,
            len(loop.latencies), loop.errors,
        )
        m.outputs = loop.outputs
        return m

    def finish(self, m: Measured, ok: list[bool]) -> None:
        """Fold per-operation check verdicts into the counts."""
        m.bad = ok.count(False)
        good_in_limit = sum(
            1 for good, lat in zip(ok, m.latencies)
            if good and lat <= self.latency_limit_s
        )
        m.goodput = good_in_limit / m.wall_s
        m.throughput = m.n_completed / m.wall_s


class Session118(_ClosedLoop):
    """``DseSession.process_frame`` over pre-generated IEEE-118 frames."""

    name = "session118"

    def setup(self):
        arch = ArchitecturePrototype.assemble(self.net, m_subsystems=self.m, seed=0)
        if not np.array_equal(arch.dec.part, self.dec.part):
            raise RuntimeError("architecture decomposition differs from the inputs'")
        session = DseSession(arch, executor=TimingExecutor(self.tracer))
        self.op(session, 0)  # warm-up
        return session

    def teardown(self, sut) -> None:
        sut.arch.close()

    def op(self, session, k):
        f = self.frames[k]
        return session.process_frame(f.mset, t=f.t, truth=(f.pf.Vm, f.pf.Va))

    def check(self, sut, m: Measured) -> list[str]:
        problems = []
        ok = []
        rounds = max(1, self.dec.diameter())
        for k, rep in m.outputs:
            good = (
                not rep.degraded_subsystems
                and rep.rounds == rounds
                and rep.vm_rmse_vs_truth <= VM_RMSE_BOUND
            )
            m.vm_rmse.append(rep.vm_rmse_vs_truth)
            ok.append(good)
            if not good:
                problems.append(
                    f"frame {k}: degraded={rep.degraded_subsystems} "
                    f"rounds={rep.rounds} vm_rmse={rep.vm_rmse_vs_truth:.3e}"
                )
        self.finish(m, ok)
        return problems


class Live118(_ClosedLoop):
    """``LiveDseRuntime(use_tcp=True, fast=True).run(z=)`` over warm sites."""

    name = "live118"

    def make_inputs(self, windows: list[float]) -> None:
        super().make_inputs(windows)
        # in-process references, kept across the windows of a run
        self.ref_dse = None
        self.refs: dict[int, object] = {}

    def setup(self):
        rt = LiveDseRuntime(self.dec, self.mset0, use_tcp=True, fast=True)
        rt.run(z=self.frames[0].mset.z)  # warm-up
        return rt

    def op(self, rt, k):
        return rt.run(z=self.frames[k].mset.z)

    def check(self, sut, m: Measured) -> list[str]:
        problems = []
        first: dict[int, object] = {}
        ok = []
        for k, res in m.outputs:
            good = not res.errors and not res.degraded
            if k in first:
                good &= np.array_equal(res.Vm, first[k].Vm) and np.array_equal(
                    res.Va, first[k].Va
                )
            else:
                first[k] = res
            rmse = _vm_rmse(res.Vm, self.frames[k].pf.Vm)
            m.vm_rmse.append(rmse)
            good &= rmse <= VM_RMSE_BOUND
            ok.append(bool(good))
            if not good:
                problems.append(f"frame {k}: errors={res.errors[:2]} vm_rmse={rmse:.3e}")
        # the live runtime must equal the in-process DSE bit for bit
        mismatched = set()
        for k, res in first.items():
            if k not in self.refs:
                if len(self.refs) >= N_PARITY_FRAMES:
                    continue
                if self.ref_dse is None:
                    self.ref_dse = DistributedStateEstimator(self.dec, self.mset0)
                self.refs[k] = self.ref_dse.run(z=self.frames[k].mset.z)
            r = self.refs[k]
            if not (np.array_equal(r.Vm, res.Vm) and np.array_equal(r.Va, res.Va)):
                mismatched.add(k)
                problems.append(f"frame {k}: live result differs from in-process DSE")
        ok = [g and k not in mismatched for g, (k, _) in zip(ok, m.outputs)]
        self.finish(m, ok)
        return problems


# -- open loop -------------------------------------------------------------------
#: offered rates (requests/s), the same on every commit.  The nominal rate
#: sits below the knee of the batched service on a 2-core host (p50 rises
#: from ~13 ms at 100/s to ~100 ms at 300/s) and keeps the median inside the
#: screening requests' own latency rather than on the edge of the queueing
#: delay behind estimations; the overload rate is above the service's
#: capacity (~400/s answered, with deadline shedding, on this mix)
WHATIF_RATE_NOMINAL = 30.0
WHATIF_RATE_OVERLOAD = 500.0
#: share of the measured time spent at the nominal rate; the rest is
#: split into overload bursts, each followed by an untimed drain
WHATIF_NOMINAL_SHARE = 0.5
WHATIF_BURSTS = 5
#: the service sheds a request still queued this long after submission —
#: past it, the request could no longer finish within the latency limit
WHATIF_SHED_AFTER_S = 0.2
#: share of what-if estimations in the request mix (the rest: N-1 screens).
#: Estimations are the slowest ~10% of requests, so the median lies among
#: screens and the p95 near the middle of a lone estimation's latency,
#: away from the rarer estimations queued behind another
WHATIF_ESTIMATION_SHARE = 0.10


class WhatIf118:
    """Open-loop what-if serving: N-1 outage estimations and DC screens
    through ``ScenarioService(batch_solve=True, executor="serial")``."""

    name = "whatif118"
    latency_limit_s = WHATIF_LATENCY_LIMIT_S
    tail_pct = 95

    def __init__(self, seed: int, tiny: bool, tracer):
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer

    def make_inputs(self, windows: list[float]) -> None:
        """Build the request pools and one arrival plan per timed window."""
        rng = np.random.default_rng(self.seed)
        net = case14() if self.tiny else case118()
        m = 2 if self.tiny else 9
        pf = run_ac_power_flow(net)
        self.net = net
        self.dec = decompose(net, m, seed=0)
        self.placement = full_placement(net).merged_with(dse_pmu_placement(self.dec))
        self.mset = generate_measurements(net, self.placement, pf, rng=rng)
        safe, _ = enumerate_n1(net)
        self.contingencies = safe
        # what-if estimations: every non-islanding N-1 outage whose AC power
        # flow solves, each with telemetry sampled from that outage's own
        # flow — the whole set, so a seed changes the noise and the
        # request order but not which outages make up the pool
        self.est_pool = []  # (delta, z, Vm_true)
        for c in safe[:6] if self.tiny else safe:
            d = outage_delta(c)
            onet = net.fork(d)
            try:
                opf = run_ac_power_flow(onet)
            except PowerFlowError:  # no post-outage operating point
                continue
            z = generate_measurements(onet, self.placement, opf, rng=rng).z
            self.est_pool.append((d, z, opf.Vm))
        self.windows = [self._plan(rng, s) for s in windows]
        self.warmup = self._requests(rng, 16)
        # serial references, kept across the windows of a run
        self.est_ref: dict[int, tuple] = {}
        self.con_ref: dict[int, object] = {}

    def _requests(self, rng, n):
        out = []
        for _ in range(n):
            if rng.random() < WHATIF_ESTIMATION_SHARE:
                j = int(rng.integers(len(self.est_pool)))
                d, z, _ = self.est_pool[j]
                out.append((("est", j), EstimationRequest(z=z, delta=d)))
            else:
                j = int(rng.integers(len(self.contingencies)))
                out.append((("con", j), ContingencyRequest(self.contingencies[j])))
        return out

    def _plan(self, rng, seconds: float) -> dict:
        nominal_s = WHATIF_NOMINAL_SHARE * seconds
        burst_s = (seconds - nominal_s) / WHATIF_BURSTS
        nominal = poisson_schedule(rng, WHATIF_RATE_NOMINAL, nominal_s)
        bursts = [
            poisson_schedule(rng, WHATIF_RATE_OVERLOAD, burst_s)
            for _ in range(WHATIF_BURSTS)
        ]
        return {
            "burst_s": burst_s,
            "phases": [(off, self._requests(rng, len(off))) for off in [nominal, *bursts]],
        }

    def setup(self):
        svc = ScenarioService(
            self.dec, self.mset, batch_solve=True, executor="serial",
            request_timeout=WHATIF_SHED_AFTER_S,
        )
        # warm-up: every screen once (fills the DC compensation columns
        # the run will reuse), then a seeded mix of requests
        futs = [svc.submit(ContingencyRequest(c)) for c in self.contingencies]
        futs += [svc.submit(req) for _, req in self.warmup]
        for f in futs:
            f.result()
        return svc

    def teardown(self, svc) -> None:
        svc.close()

    def measure(self, svc, seconds: float, traced: bool, window: int = 0) -> Measured:
        plan = self.windows[window]
        batches0 = svc.stats.n_batches
        sizes0 = len(svc.stats.batch_sizes)
        shed0 = svc.stats.n_shed
        results = []
        for offsets, reqs in plan["phases"]:
            res = open_loop(svc.submit, [r for _, r in reqs], offsets)
            results.append((reqs, res))
        nominal = results[0][1]
        lat = nominal.latencies
        # a shed during an overload burst is a goodput miss by design;
        # any other exception, or a shed at the nominal rate, is a failure
        errors = [
            f"phase {p} request {i}: {exc!r}"
            for p, (_, r) in enumerate(results)
            for i, exc in enumerate(r.exceptions)
            if exc is not None and not (p > 0 and isinstance(exc, DeadlineExceeded))
        ]
        m = Measured(
            lat[~np.isnan(lat)],
            sum(r.wall_s for _, r in results),
            sum(r.cpu_s for _, r in results),
            sum(len(reqs) for reqs, _ in results),
            sum(int(np.sum(~np.isnan(r.done))) for _, r in results),
            errors,
        )
        m.phases = results
        m.burst_s = plan["burst_s"]
        sizes = svc.stats.batch_sizes[sizes0:]
        lateness = np.concatenate([r.lateness for _, r in results])
        svc_lat = [v.latency for _, r in results for v in r.values if v is not None]
        m.serving = {
            "serving.batches": (svc.stats.n_batches - batches0) / max(1, m.attempted),
            "serving.batch_size.mean": float(np.mean(sizes)) if sizes else 0.0,
            "serving.service_latency.p50_ms": 1e3 * float(np.median(svc_lat)) if svc_lat else 0.0,
            "serving.generator_late.p50_ms": 1e3 * float(np.median(lateness)),
            "serving.generator_late.max_ms": 1e3 * float(np.max(lateness)),
            "serving.shed": (svc.stats.n_shed - shed0) / max(1, m.attempted),
        }
        return m

    def check(self, svc, m: Measured) -> list[str]:
        """Batched answers against the serial references, outside timing."""
        problems = []
        est_ref, con_ref = self.est_ref, self.con_ref
        bad_total = 0
        good_overload = done_n = 0
        busy_s = 0.0
        for p, (reqs, res) in enumerate(m.phases):
            good_in_limit = 0
            for ((kind, j), _), value, lat in zip(reqs, res.values, res.latencies):
                if value is None:
                    continue
                if kind == "est":
                    d, z, vm_true = self.est_pool[j]
                    if j not in est_ref and len(est_ref) < N_PARITY_WHATIF:
                        r = WlsEstimator(self.net.fork(d), self.mset).estimate(z=z)
                        est_ref[j] = (r.Vm, r.Va)
                    est = value.value
                    dev = 0.0
                    if j in est_ref:
                        vm, va = est_ref[j]
                        dev = max(np.max(np.abs(est.Vm - vm)), np.max(np.abs(est.Va - va)))
                    rmse = _vm_rmse(est.Vm, vm_true)
                    m.vm_rmse.append(rmse)
                    good = bool(est.converged) and dev <= 1e-10 and rmse <= VM_RMSE_BOUND
                    if not good:
                        problems.append(
                            f"what-if {j}: batched vs serial {dev:.2e}, vm_rmse {rmse:.2e}"
                        )
                else:
                    if j not in con_ref:
                        con_ref[j] = svc.analyzer.analyze(self.contingencies[j])
                    good = _same_screen(value.value, con_ref[j])
                    if not good:
                        problems.append(f"contingency {j}: batched screen differs from analyze()")
                if not good:
                    bad_total += 1
                elif lat <= self.latency_limit_s:
                    good_in_limit += 1
            if p > 0:
                done = res.done[~np.isnan(res.done)]
                good_overload += good_in_limit
                done_n += len(done)
                if len(done):
                    busy_s += done.max() - res.scheduled[0]
        m.bad = bad_total
        # overload bursts: completions per second from each burst's first
        # due time to its last completion, and requests answered correctly
        # within the limit per second of offered burst
        m.throughput = done_n / busy_s if busy_s else 0.0
        m.goodput = good_overload / (m.burst_s * (len(m.phases) - 1))
        return problems


def _same_screen(a, b, tol: float = 1e-9) -> bool:
    """Batched screen ``a`` equals the serial ``b`` to round-off.

    ``analyze_batch`` documents that a flow sitting exactly on its rating
    may flip in or out of the violation list; such a branch is accepted
    only when its flow is within ``tol`` of the rating.
    """
    if a.converged != b.converged:
        return False
    if not a.converged:
        return True
    if abs(a.max_loading - b.max_loading) > tol * max(1.0, abs(b.max_loading)):
        return False
    va = {v.branch: v for v in a.violations}
    vb = {v.branch: v for v in b.violations}
    for br in va.keys() | vb.keys():
        if br in va and br in vb:
            if abs(va[br].flow - vb[br].flow) > tol:
                return False
        else:
            v = va.get(br) or vb.get(br)
            if abs(abs(v.flow) - v.rating) > tol:
                return False
    return True


WORKLOADS = {w.name: w for w in (Session118, Live118, WhatIf118)}
