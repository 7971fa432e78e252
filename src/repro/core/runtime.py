"""Live distributed DSE runtime: concurrent estimator sites + middleware.

The closest thing in this repository to the paper's deployed prototype:
every subsystem's state estimator runs in its own thread ("site"), owns
only its local subproblem, and learns about its neighbours exclusively from
the bytes that arrive through the MeDICi-style pipelines — no shared-memory
shortcuts.  Rounds advance in lockstep (a barrier models the cycle
boundary of Figure 6); the payloads on the wire are the packed
pseudo-measurement records of :mod:`repro.middleware.message`.

The functional result must match the in-process
:class:`~repro.dse.algorithm.DistributedStateEstimator` — asserted in the
tests — while the wall-clock and relay statistics are those of a real
multi-threaded, socket-backed execution.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..cluster.recovery import (
    RecoveryConfig,
    RecoveryCoordinator,
    SubsystemCheckpoint,
    heartbeat_payload,
)
from ..dse.algorithm import DistributedStateEstimator
from ..dse.decomposition import Decomposition
from ..dse.pseudo import pseudo_measurements
from ..estimation.wls import WlsEstimator
from ..measurements.types import MeasurementSet
from ..middleware.errors import ClientClosed, MiddlewareError
from ..middleware.message import (
    FrameError,
    pack_condensed_update,
    pack_state_update,
    unpack_condensed_update,
    unpack_state_update,
)
from ..middleware.router import MiddlewareFabric

__all__ = ["LiveSiteStats", "LiveDseResult", "LiveDseRuntime"]

#: per-site cap on retained degraded-round indices (the full count lives
#: in ``degraded_total``) — a week-long soak stays O(1) memory per site
DEGRADED_ROUNDS_RETAINED = 64


@dataclass
class LiveSiteStats:
    """Per-site execution record."""

    s: int
    step1_time: float = 0.0
    step2_times: list[float] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_received: int = 0
    #: Step-2 rounds this site completed without its full neighbour set
    #: (missed/corrupt updates, failed sends, blown round deadline);
    #: bounded to the most recent :data:`DEGRADED_ROUNDS_RETAINED` entries
    degraded_rounds: list[int] = field(default_factory=list)
    #: total degraded rounds, including any aged out of the capped list
    degraded_total: int = 0
    #: subsystem ids promoted onto this site by failover (recovery mode)
    promoted_subsystems: list[int] = field(default_factory=list)
    checkpoints_sent: int = 0
    checkpoint_bytes: int = 0

    def record_degraded(self, r: int) -> None:
        """Record a degraded round; the retained list keeps only the most
        recent entries so long-running soaks don't grow without bound."""
        self.degraded_total += 1
        self.degraded_rounds.append(r)
        if len(self.degraded_rounds) > DEGRADED_ROUNDS_RETAINED:
            del self.degraded_rounds[
                : len(self.degraded_rounds) - DEGRADED_ROUNDS_RETAINED
            ]


@dataclass
class LiveDseResult:
    """Outcome of a live distributed run."""

    Vm: np.ndarray
    Va: np.ndarray
    rounds: int
    wall_time: float
    sites: dict[int, LiveSiteStats]
    errors: list[str] = field(default_factory=list)
    #: site id -> Step-2 rounds the site ran degraded (empty when clean)
    degraded: dict[int, list[int]] = field(default_factory=dict)
    #: subsystem ids re-hosted by failover (recovery mode; empty otherwise)
    recovered_subsystems: list[int] = field(default_factory=list)
    #: site ids whose lease expired during the run
    lost_sites: list[int] = field(default_factory=list)

    @property
    def degraded_subsystems(self) -> list[int]:
        """Sorted ids of the subsystems that ran any degraded round."""
        return sorted(self.degraded)

    def state_error(self, Vm_true: np.ndarray, Va_true: np.ndarray) -> dict:
        dva = self.Va - Va_true
        dva -= dva.mean()
        return {
            "vm_rmse": float(np.sqrt(np.mean((self.Vm - Vm_true) ** 2))),
            "va_rmse": float(np.sqrt(np.mean(dva**2))),
        }


class LiveDseRuntime:
    """Runs the two-step DSE as concurrent sites over live middleware.

    Parameters
    ----------
    dec, mset:
        The decomposition and the system-wide measurement snapshot (each
        site only ever touches its own assigned rows).
    use_tcp:
        Real localhost TCP instead of in-process queues.
    solver, sensitivity_threshold:
        Passed through to the local estimators.
    recv_timeout:
        Per-message receive timeout; a site that misses a neighbour's
        update records an error and re-uses its last known values, so a
        slow or dead peer degrades accuracy instead of deadlocking.
    round_deadline:
        Wall-clock budget per Step-2 exchange round, in seconds.  A site
        that has not collected its full neighbour set by the deadline
        stops waiting, runs the round on what it has (falling back to
        last-known pseudo values) and records the round as degraded —
        liveness under hard faults is bounded by ``rounds x deadline``
        instead of ``rounds x neighbours x recv_timeout``.  ``None``
        (default) keeps the per-message-timeout-only behaviour.
    fast:
        Only ``True`` is accepted: the fabric has one data plane (the mux
        router hub), so the argument selects nothing and is kept for
        callers that still pass it.
    condense:
        Condensed Step 2 (see
        :class:`~repro.dse.algorithm.DistributedStateEstimator`): each
        site solves the boundary-condensed system and the wire carries
        compact per-neighbour boundary blocks
        (:func:`~repro.middleware.message.pack_condensed_update`) — bus
        ids ride only the round-0 frames, later rounds are values-only
        over the receiver's a-priori ordering.
    recovery:
        Self-healing mode (a :class:`~repro.cluster.recovery.RecoveryConfig`;
        ``None`` — the default — is bitwise-inert): every round each site
        replicates a compact checkpoint of each subsystem it hosts to the
        subsystem's hash-ring successor over ``FLAG_CHECKPOINT`` frames;
        a site whose checkpoints stop arriving for ``lease_rounds``
        rounds is declared lost, its subsystems are promoted onto the
        successors holding their replicas, and the mux hub fences the
        zombie's epoch-stamped frames so it can never corrupt a
        post-failover round.

    Every site reuses the warm per-subsystem estimators of the in-process
    DSE across rounds and frames; a round that lacks part of its
    neighbour set solves a freshly built estimator over the boundary
    values it does know.
    """

    def __init__(
        self,
        dec: Decomposition,
        mset: MeasurementSet,
        *,
        use_tcp: bool = False,
        solver: str = "lu",
        sensitivity_threshold: float = 0.5,
        recv_timeout: float = 10.0,
        round_deadline: float | None = None,
        fast: bool = True,
        condense: bool = False,
        recovery: RecoveryConfig | None = None,
    ):
        if not fast:
            raise ValueError(
                "fast must be True: the fabric has one data plane"
            )
        # Reuse the in-process DSE's subproblem construction and checks
        # (including its per-subsystem estimator caches).
        self._dse = DistributedStateEstimator(
            dec, mset, solver=solver,
            sensitivity_threshold=sensitivity_threshold,
            condense=condense,
        )
        self.dec = dec
        self.solver = solver
        self.recv_timeout = recv_timeout
        self.round_deadline = round_deadline
        self.use_tcp = use_tcp
        self.condense = condense
        self.recovery = recovery

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        rounds: int | None = None,
        tol: float = 1e-8,
        z: np.ndarray | None = None,
    ) -> LiveDseResult:
        """Execute one live distributed estimation.

        ``z`` optionally overrides the system-wide measured values
        (canonical order of the constructor's ``mset``) — a values-only
        frame over the warm site estimators, mirroring
        :meth:`repro.dse.algorithm.DistributedStateEstimator.run`.
        """
        dec = self.dec
        net = dec.net
        if rounds is None:
            rounds = max(1, dec.diameter())
        if z is not None:
            z = np.asarray(z, dtype=float)
            if len(z) != len(self._dse.mset):
                raise ValueError("z override length mismatch")

        names = [f"se{s}" for s in range(dec.m)]
        pairs: list[tuple[str, str]] | None = []
        for u, v in dec.quotient_edges():
            pairs.append((f"se{u}", f"se{v}"))
            pairs.append((f"se{v}", f"se{u}"))
        recovery = self.recovery
        if recovery is not None:
            # failover can rebind any (publisher, host) pair, so the
            # fabric wires the full ordered-pair mesh up front
            pairs = None

        Vm = np.ones(net.n_bus)
        Va = np.zeros(net.n_bus)
        stats = {s: LiveSiteStats(s=s) for s in range(dec.m)}
        errors: list[str] = []
        err_lock = threading.Lock()
        barrier = threading.Barrier(dec.m)
        # Each site writes only its own buses; reads of neighbour values
        # happen via the wire, never via these arrays.
        result_lock = threading.Lock()
        coord: RecoveryCoordinator | None = None
        if recovery is not None:
            coord = RecoveryCoordinator(
                sites={name: i for i, name in enumerate(names)},
                hosted={f"se{s}": [s] for s in range(dec.m)},
                config=recovery,
            )

        watches: dict[int, object] = {}
        dse = self._dse
        nbrs = {s: [int(b) for b in dec.neighbors(s)] for s in range(dec.m)}

        def fail(msg: str) -> None:
            with err_lock:
                errors.append(msg)

        def sync() -> bool:
            """Round barrier; ``False`` once a crashed site has broken it."""
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return False
            return True

        def _site_body(s: int, fabric: MiddlewareFabric) -> None:
            me = f"se{s}"
            st = stats[s]
            # This site's view of the grid, indexed by global bus: its
            # hosted subsystems' own state plus every boundary value the
            # wire has delivered (``known``).
            pub_vm = np.ones(net.n_bus)
            pub_va = np.zeros(net.n_bus)
            known = np.zeros(net.n_bus, dtype=bool)
            # hosted subsystem -> (previous extended solution, condensation
            # linearisation point); only ``s`` unless failover adds more
            hosted: dict[int, tuple] = {s: (None, None)}

            def adopt(ids, vm, va) -> None:
                pub_vm[ids] = vm
                pub_va[ids] = va
                known[ids] = True

            def unpack(raw) -> tuple:
                if self.condense:
                    src, _, ids, vms, vas = unpack_condensed_update(raw, copy=False)
                    if ids is None:
                        # values-only frame: resolve the bus ids from the
                        # shared a-priori per-neighbour publication sets
                        # (recovery never sends one: its receiving host
                        # can change under failover)
                        if coord is not None:
                            raise FrameError(
                                "values-only condensed frame in recovery mode"
                            )
                        ids = dse._nbr_pub[src][s]
                        if len(ids) != len(vms):
                            raise FrameError("condensed update length mismatch")
                else:
                    ids, vms, vas = unpack_state_update(raw, copy=False)
                if np.any((ids < 0) | (ids >= net.n_bus)):
                    raise FrameError("update names a bus outside the grid")
                return ids, vms, vas

            def exchange(r: int) -> bool:
                """Publish every hosted subsystem's boundary and absorb the
                neighbours'; ``True`` when the round ran degraded."""
                degraded = False
                round_t1 = (
                    None
                    if self.round_deadline is None
                    else time.monotonic() + self.round_deadline
                )
                parts = []
                for s_ in sorted(hosted):
                    payload = None
                    for nb in nbrs[s_]:
                        dst = f"se{nb}" if coord is None else coord.site_of(nb)
                        if dst == me:
                            continue  # co-hosted: its values already live here
                        if self.condense:
                            # only the tie-endpoint buses nb's extended
                            # network reads; values-only after round 0
                            # unless failover can re-route the frame
                            ids = dse._nbr_pub[s_][nb]
                            payload = pack_condensed_update(
                                s_, ids, pub_vm[ids], pub_va[ids],
                                values_only=r > 0 and coord is None,
                            )
                        elif payload is None:
                            ids = dse.exchange_sets[s_]
                            payload = pack_state_update(
                                ids, pub_vm[ids], pub_va[ids]
                            )
                        parts.append((dst, payload))
                # the whole burst rides one syscall;
                # sending inside the span stamps the frames with this
                # trace's context, so the router hop joins the trace
                try:
                    fabric.send_many(
                        me, parts, epoch=None if coord is None else coord.epoch
                    )
                    st.bytes_sent += sum(len(p) for _, p in parts)
                except (MiddlewareError, ConnectionError, OSError) as exc:
                    # cut off from the fabric: solve on last-known values
                    fail(f"site {s} round {r}: send failed: {exc!r}")
                    degraded = True

                for _ in parts:
                    timeout = self.recv_timeout
                    if round_t1 is not None:
                        remaining = round_t1 - time.monotonic()
                        if remaining <= 0:
                            fail(f"site {s} round {r}: round deadline exceeded")
                            return True
                        timeout = min(timeout, remaining)
                    try:
                        raw = fabric.recv(me, timeout=timeout)
                    except TimeoutError:
                        fail(f"site {s} round {r}: neighbour update timed out")
                        degraded = True
                        continue
                    except (ClientClosed, MiddlewareError) as exc:
                        fail(f"site {s} round {r}: recv failed: {exc!r}")
                        return True
                    st.bytes_received += len(raw)
                    st.messages_received += 1
                    try:
                        update = unpack(raw)
                    except (FrameError, ValueError, KeyError) as exc:
                        # corrupted in flight: this update is lost
                        fail(f"site {s} round {r}: corrupt update: {exc!r}")
                        degraded = True
                        continue
                    adopt(*update)
                return degraded

            def solve(s_: int, r: int, snap_vm, snap_va) -> None:
                subnet2, bmap2, xbuses, ext, ms2 = dse.sub2[s_]
                prev2, lin0 = hosted[s_]
                full = bool(known[ext].all())
                if full:
                    est2 = dse._step2_cache[s_][0]
                    z2, x0_vm, x0_va = dse._step2_inputs(
                        s_, snap_vm, snap_va, prev2, z
                    )
                else:
                    # Partial coverage: a fresh estimator over pseudo
                    # measurements at the boundary buses heard from; the
                    # warm start keeps its stale values elsewhere.
                    ext_known = ext[known[ext]]
                    idx = bmap2[ext_known]
                    pseudo = pseudo_measurements(
                        idx, snap_vm[ext_known], snap_va[ext_known]
                    )
                    if z is not None:
                        ms2 = ms2.with_values(dse._step2_meas_z(s_, z))
                    est2 = WlsEstimator(
                        subnet2, ms2.merged_with(pseudo), solver=self.solver
                    )
                    z2 = None
                    if prev2 is None:
                        x0_vm, x0_va = snap_vm[xbuses], snap_va[xbuses]
                    else:
                        x0_vm, x0_va = prev2[0].copy(), prev2[1].copy()
                        x0_vm[idx] = snap_vm[ext_known]
                        x0_va[idx] = snap_va[ext_known]
                if prev2 is None and self.condense:
                    # the first round starts at the frame's Step-1
                    # publication: the same history-free linearisation
                    # point the in-process DSE condenses at
                    lin0 = (x0_vm.copy(), x0_va.copy())
                kwargs = {"lin_point": lin0} if full and lin0 is not None else {}
                t0 = time.perf_counter()
                with obs.span("live.step2", s=s_, round=r):
                    res2 = est2.estimate(x0=(x0_vm, x0_va), tol=tol, z=z2, **kwargs)
                st.step2_times.append(time.perf_counter() - t0)
                hosted[s_] = ((res2.Vm, res2.Va), lin0)
                scope = dse.exchange_sets[s_]
                pub_vm[scope] = res2.Vm[bmap2[scope]]
                pub_va[scope] = res2.Va[bmap2[scope]]

            # ---- recovery hooks (coord is not None) ----
            def checkpoint(s_: int, r: int) -> SubsystemCheckpoint:
                own_ids = np.asarray(dse.sub1[s_][2], dtype=np.int64)
                warm, lin = hosted[s_]
                return SubsystemCheckpoint(
                    subsystem=s_, site=s, epoch=coord.epoch, round=r,
                    own_ids=own_ids,
                    own_vm=pub_vm[own_ids], own_va=pub_va[own_ids],
                    warm_vm=None if warm is None else warm[0],
                    warm_va=None if warm is None else warm[1],
                    lin_vm=None if lin is None else lin[0],
                    lin_va=None if lin is None else lin[1],
                )

            def promote(r: int) -> None:
                for ck in coord.begin_round(me, r):
                    # float64 state round-trips the wire bit-exactly, so
                    # the lin point hits the donor's factorisation cache
                    hosted[ck.subsystem] = (
                        None if ck.warm_vm is None else (ck.warm_vm, ck.warm_va),
                        None if ck.lin_vm is None else (ck.lin_vm, ck.lin_va),
                    )
                    adopt(ck.own_ids, ck.own_vm, ck.own_va)
                    st.promoted_subsystems.append(ck.subsystem)
                    if obs.health_enabled():
                        obs.health().site_recovered(
                            me, subsystem=ck.subsystem, round=r,
                            checkpoint_round=ck.round,
                        )
                # shed subsystems promoted away from us: our lease expired
                # while we were cut off, and the hub now fences our frames
                for s_ in [k for k in hosted if not coord.owns(me, k)]:
                    hosted.pop(s_)

            def heartbeat(r: int) -> None:
                # to every live peer: checkpoints reach only the ring
                # successor, so a lease riding on them alone would starve
                # the moment that successor died
                hb = heartbeat_payload(s, coord.epoch, r)
                for peer in names:
                    if peer == me or coord.is_lost(peer):
                        continue
                    try:
                        fabric.send_checkpoint(me, peer, hb, epoch=coord.epoch)
                    except (MiddlewareError, ConnectionError, OSError):
                        pass  # a dead peer's inbox is not our liveness

            def replicate(r: int) -> None:
                for s_ in sorted(hosted):
                    succ = coord.successor(s_)
                    if succ is None or succ == me:
                        continue
                    pay = checkpoint(s_, r).to_payload()
                    try:
                        fabric.send_checkpoint(me, succ, pay, epoch=coord.epoch)
                    except (MiddlewareError, ConnectionError, OSError) as exc:
                        fail(f"site {s} round {r}: checkpoint send failed: {exc!r}")
                        continue
                    st.checkpoints_sent += 1
                    st.checkpoint_bytes += len(pay)
                    if obs.enabled():
                        m = obs.metrics()
                        m.counter("recovery.checkpoints_sent_total").inc()
                        m.counter("recovery.checkpoint_bytes_total").inc(len(pay))

            # ---- Step 1 ----
            own = dse.sub1[s][2]
            t0 = time.perf_counter()
            with obs.span("live.step1", s=s):
                z1 = dse._step1_z(s, z) if z is not None else None
                res1 = dse._est1[s].estimate(tol=tol, z=z1)
            st.step1_time = time.perf_counter() - t0
            adopt(own, res1.Vm, res1.Va)
            if coord is not None:
                # Bootstrap replica seed (round -1), handed to the
                # coordinator before the first barrier: a replica exists
                # before any data frame can kill a site, and before any
                # ordering race on the hub.
                succ = coord.successor(s)
                if succ is not None:
                    coord.ingest(succ, checkpoint(s, -1).to_payload())
            if not sync():
                return

            # ---- Step 2 rounds ----
            for r in range(rounds):
                tok = watches.get(s)
                if tok is not None:
                    obs.health().beat(tok)
                if coord is not None:
                    promote(r)
                    if not hosted:
                        # passive zombie: nothing left to solve; keep the
                        # barrier cadence so the lockstep schedule holds
                        if not sync():
                            return
                        continue
                    heartbeat(r)
                with obs.span("live.exchange", s=s, round=r):
                    degraded = exchange(r)
                if degraded:
                    st.record_degraded(r)
                    if obs.enabled():
                        obs.metrics().counter("live.degraded_rounds_total").inc()
                    if obs.health_enabled():
                        obs.health().frame_degraded(me, round=r)
                # every hosted subsystem solves against one post-exchange
                # view, so co-hosted solve order cannot leak into results
                snap_vm, snap_va = pub_vm.copy(), pub_va.copy()
                for s_ in sorted(hosted):
                    solve(s_, r, snap_vm, snap_va)
                if coord is not None and r % recovery.checkpoint_every == 0:
                    replicate(r)
                if not sync():
                    return

            with result_lock:
                for s_ in hosted:
                    own_ = dse.sub1[s_][2]
                    Vm[own_] = pub_vm[own_]
                    Va[own_] = pub_va[own_]

        def site(s: int, fabric: MiddlewareFabric) -> None:
            if obs.health_enabled():
                # a round legitimately lasts up to its deadline (or one
                # recv timeout per neighbour); double that is a stall
                budget = (
                    self.round_deadline
                    if self.round_deadline is not None
                    else self.recv_timeout * max(1, dec.m - 1)
                )
                watches[s] = obs.health().watch(
                    f"live.site:{s}", timeout=2.0 * budget, source=f"se{s}",
                )
            try:
                # site threads start with a fresh contextvars context, so
                # the root span is handed over explicitly
                with obs.span("live.site", parent=root_ctx, s=s):
                    _site_body(s, fabric)
            except Exception as exc:  # crash must not deadlock the barrier
                fail(f"site {s} failed: {exc!r}")
                barrier.abort()
            finally:
                tok = watches.pop(s, None)
                if tok is not None:
                    obs.health().disarm(tok)

        with MiddlewareFabric(names, pairs, use_tcp=self.use_tcp) as fabric:
            if coord is not None:
                # replica sinks + zombie fence must be live before the
                # first site thread can send a frame
                for name in names:
                    fabric.set_checkpoint_sink(
                        name, lambda p, _n=name: coord.ingest(_n, p)
                    )
                fabric.set_epoch_fence(coord.fence)
            with obs.span(
                "live.run", m=dec.m, rounds=rounds, tcp=self.use_tcp
            ):
                root_ctx = obs.current_context()
                wall_t0 = time.perf_counter()
                threads = [
                    threading.Thread(target=site, args=(s, fabric),
                                     name=f"site-{s}")
                    for s in range(dec.m)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                wall_elapsed = time.perf_counter() - wall_t0

        if obs.enabled():
            reg = obs.metrics()
            reg.counter("live.runs_total").inc()
            reg.histogram("live.run.seconds").observe(wall_elapsed)

        return LiveDseResult(
            Vm=Vm, Va=Va, rounds=rounds, wall_time=wall_elapsed,
            sites=stats, errors=errors,
            degraded={
                s: list(st.degraded_rounds)
                for s, st in stats.items()
                if st.degraded_rounds
            },
            recovered_subsystems=sorted(coord.recovered) if coord else [],
            lost_sites=(
                sorted(int(n[2:]) for n in coord.lost_sites) if coord else []
            ),
        )
