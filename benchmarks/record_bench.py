"""Record headline benchmark numbers to a JSON artifact.

Runs the gating benchmarks — E8 (Figure 6, one end-to-end DSE cycle on the
architecture), A1 (the PCG solver ablation on the IEEE-118 gain system),
the hot-path seed-vs-optimised comparison, the PR-2 scale-out throughput
grid, the PR-3 middleware fast path (pooled/batched small-message
throughput, echo round-trip latency and the mux-fabric data path over
localhost TCP), the PR-4 observability instrumentation overhead on the
warm DSE hot path, the PR-5 fault-injection hook overhead on the live
frame loop, the PR-6 batched scenario sweep (copy-on-write fork cost
and the one-batched-solve N-1 throughput), the PR-7 boundary
condensation comparison (reference vs Schur-condensed Step 2 on IEEE-14,
IEEE-118 and the WECC-scale synthetic interconnection), the PR-8
serving-capacity curve (open-loop Poisson load against a direct service,
a one-shard router and a two-shard router), and the PR-9 health-plane
overhead (obs + flight recorder + monitor loop on the warm DSE frame
loop), and the PR-10 recovery plane (checkpoint/heartbeat overhead on
the live frame loop plus frames-to-recovery after seeded site kills) —
and writes the numbers to ``BENCH_pr10.json`` at the repository
root::

    PYTHONPATH=src python benchmarks/record_bench.py

Acceptance criteria pinned here: the cached + warm-started DSE must stay
at least 1.5× faster than the seed-style cold path while matching its
state to ≤ 1e-10; on hosts with at least 4 cores the process-backend
contingency throughput must reach 3× the thread backend; on hosts with at
least 2 cores, where the sender and the event-driven receiver can
physically run in parallel, the pooled fast path must sustain ≥ 5× the
connect-per-message small-message throughput and ≥ 2× better p50
round-trip latency; and — also on ≥ 2 cores, where timing is not swamped
by single-core scheduler jitter — enabling observability at the default
sampling must cost ≤ 5% on the warm IEEE-118 frame loop, with bit-identical
estimator outputs either way (the parity check runs regardless of cores).
The PR-5 gate follows the same shape: an installed-but-idle fault injector
must cost ≤ 5% on the live IEEE-118 frame loop (≥ 2 cores), with
bit-identical outputs and zero fired faults on every host.  The PR-6 gate:
the warm batched IEEE-118 N-1 sweep must reach ≥ 10× the serial per-outage
loop (≥ 2 cores), scenario forks must stay O(delta) (a ≥ 100× smaller
payload than the network, required on every host), and batch/serial
loadings must agree to ≤ 1e-9.  The PR-7 gate: the condensed Step 2 must
match the reference final state to ≤ 1e-8 on every case (every host),
shrink the WECC-scale exchange volume ≥ 5×, and — on ≥ 2 cores — reduce
the warm WECC-scale Step-2 solve time.  The PR-8 gate: every offered
request must resolve (zero hung, zero untyped failures) on every host;
on ≥ 2 cores, where the shards' dispatcher threads can physically run in
parallel, the two-shard router must sustain ≥ 1.5× the single-service
capacity at the same p99 SLO, and the one-shard router path must stay
within 5% of the direct service's p50 latency.  On smaller hosts the
numbers are still recorded (with the core count) but the scale-dependent
gates are not evaluated.  The PR-9 gate follows the PR-4 shape: enabling
the full health plane (tracer mirror into the flight recorder plus the
monitor's background tick loop) must cost ≤ 5% over the disabled
baseline on the warm IEEE-118 frame loop (≥ 2 cores), with estimator
outputs bit-identical across disabled / obs-only / health modes on every
host.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_middleware_fastpath import (  # noqa: E402
    measure_fabric_throughput,
    measure_roundtrip_latency,
    measure_small_message_throughput,
)
from bench_batch_sweep import (  # noqa: E402
    measure_fork_cost,
    measure_sweep_throughput,
)
from bench_condensation import measure_condensation  # noqa: E402
from bench_serving_capacity import measure_serving_capacity  # noqa: E402
from bench_fault_overhead import measure_fault_overhead  # noqa: E402
from bench_recovery import (  # noqa: E402
    measure_frames_to_recovery,
    measure_recovery_overhead,
)
from bench_obs_overhead import measure_obs_overhead  # noqa: E402
from bench_scaleout_throughput import (  # noqa: E402
    backend_specs,
    bench_contingency_throughput,
    bench_dse_round_throughput,
    bench_serving_batches,
)
from repro.contingency import enumerate_n1  # noqa: E402
from repro.core import ArchitecturePrototype, DseSession  # noqa: E402
from repro.dse import (  # noqa: E402
    DistributedStateEstimator,
    decompose,
    dse_pmu_placement,
)
from repro.estimation import build_gain, pcg_solve  # noqa: E402
from repro.estimation.wls import WlsEstimator  # noqa: E402
from repro.grid import run_ac_power_flow  # noqa: E402
from repro.grid.cases import case118  # noqa: E402
from repro.measurements import full_placement, generate_measurements  # noqa: E402

OUT = ROOT / "BENCH_pr10.json"


def _setup118():
    net = case118()
    pf = run_ac_power_flow(net)
    dec = decompose(net, 9, seed=0)
    rng = np.random.default_rng(0)
    plac = full_placement(net).merged_with(dse_pmu_placement(dec))
    ms = generate_measurements(net, plac, pf, rng=rng)
    return net, pf, dec, ms


def bench_hotpath(net, pf, dec, ms, repeats=3) -> dict:
    """Seed-style cold DSE vs the cached + warm-started hot path."""

    def run(**kw):
        best, res = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = DistributedStateEstimator(dec, ms, **kw).run()
            best = min(best, time.perf_counter() - t0)
        return best, res

    t_seed, r_seed = run(reuse_structures=False, warm_start=False)
    t_hot, r_hot = run(reuse_structures=True, warm_start=True)
    return {
        "case": "ieee118",
        "n_bus": net.n_bus,
        "n_subsystems": dec.m,
        "n_measurements": len(ms),
        "rounds": r_hot.rounds,
        "seed_time_s": t_seed,
        "optimized_time_s": t_hot,
        "speedup": t_seed / t_hot,
        "max_abs_dVm": float(np.abs(r_hot.Vm - r_seed.Vm).max()),
        "max_abs_dVa": float(np.abs(r_hot.Va - r_seed.Va).max()),
    }


def bench_fig6(net, pf, repeats=3) -> dict:
    """E8 — one full DSE cycle (Figure 6) on the architecture prototype."""
    arch = ArchitecturePrototype.assemble(net, m_subsystems=9, seed=0)
    plac = full_placement(net).merged_with(dse_pmu_placement(arch.dec))
    rng = np.random.default_rng(0)
    mset = generate_measurements(net, plac, pf, rng=rng)
    best = None
    for _ in range(repeats):
        session = DseSession(arch)
        report = session.process_frame(mset, truth=(pf.Vm, pf.Va))
        if best is None or report.wall_time < best.wall_time:
            best = report
    arch.close()
    tm = best.timings
    return {
        "case": "ieee118",
        "rounds": best.rounds,
        "wall_time_s": best.wall_time,
        "sim_step1_s": tm.step1,
        "sim_redistribution_s": tm.redistribution,
        "sim_exchange_s": tm.exchange,
        "sim_step2_s": tm.step2,
        "sim_total_s": tm.total,
        "bytes_exchanged": best.bytes_exchanged,
        "vm_rmse_vs_truth": best.vm_rmse_vs_truth,
    }


def bench_pcg_ablation(net, pf, ms) -> dict:
    """A1 — solver iteration counts on the IEEE-118 gain system."""
    est = WlsEstimator(net, ms)
    H = est.model.jacobian(pf.Vm, pf.Va).tocsc()[:, est._keep]
    w = ms.weights
    G = build_gain(H, w)
    rhs = H.T @ (w * (ms.z - est.model.h(pf.Vm, pf.Va)))
    out = {}
    for name, prec in (
        ("cg-none", "none"),
        ("pcg-jacobi", "jacobi"),
        ("pcg-ichol", "ichol"),
    ):
        t0 = time.perf_counter()
        res = pcg_solve(G, rhs, preconditioner=prec, tol=1e-10, max_iter=5000)
        out[name] = {
            "iterations": res.iterations,
            "converged": bool(res.converged),
            "time_s": time.perf_counter() - t0,
        }
    return out


def bench_scaleout(net, dec, ms) -> dict:
    """PR-2 scale-out grid: backend × workers × batch size."""
    cons, _ = enumerate_n1(net)
    specs = backend_specs()
    contingency = bench_contingency_throughput(net, cons, specs=specs)
    dse_rounds = bench_dse_round_throughput(dec, ms, specs=specs)
    serving = bench_serving_batches(dec, ms, cons[:64])
    return {
        "cores": os.cpu_count(),
        "backends": specs,
        "contingency_throughput": contingency,
        "dse_round_throughput": dse_rounds,
        "serving_vs_batch": serving,
    }


def bench_middleware_fastpath() -> dict:
    """PR-3 middleware fast path over localhost TCP."""
    return {
        "cores": os.cpu_count(),
        "small_message_throughput": measure_small_message_throughput(),
        "roundtrip_latency": measure_roundtrip_latency(),
        "fabric_throughput": measure_fabric_throughput(),
    }


def _fastpath_gate(fastpath: dict) -> tuple[bool, str]:
    """≥5× pooled small-message throughput and ≥2× p50 round-trip latency
    vs the connect-per-message baseline, gated on ≥2 cores (the sender and
    the event-driven receiver must be able to run in parallel)."""
    cores = fastpath["cores"] or 1
    tp = fastpath["small_message_throughput"]
    lat = fastpath["roundtrip_latency"]
    summary = (
        f"pooled {tp['pooled_speedup']:.1f}x / batched "
        f"{tp['batched_speedup']:.1f}x throughput, p50 "
        f"{lat['p50_improvement']:.1f}x"
    )
    if cores < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    best = max(tp["pooled_speedup"], tp["batched_speedup"])
    ok = best >= 5.0 and lat["p50_improvement"] >= 2.0
    return ok, f"{summary} (need >= 5.0x throughput and >= 2.0x p50)"


def _scaleout_gate(scaleout: dict) -> tuple[bool, str]:
    """≥3× process-over-thread contingency throughput, gated on ≥4 cores."""
    cores = scaleout["cores"] or 1
    if cores < 4:
        return True, f"gate skipped: {cores} core(s) < 4 (recorded only)"
    rates = scaleout["contingency_throughput"]
    ratios = []
    for spec, rec in rates.items():
        if spec.startswith("processes:"):
            twin = "threads:" + spec.split(":")[1]
            if twin in rates:
                ratios.append(rec["cases_per_s"] / rates[twin]["cases_per_s"])
    if not ratios:
        return False, "gate failed: no process/thread pair measured"
    best = max(ratios)
    ok = best >= 3.0
    return ok, f"best process/thread ratio {best:.2f}x (need >= 3.0x)"


def _obs_gate(rec: dict, cores: int | None) -> tuple[bool, str]:
    """≤5% enabled-mode overhead on the warm DSE frame loop, gated on
    ≥2 cores (single-core scheduler jitter swamps a percent-level signal);
    bit-identical estimator outputs are required on every host."""
    summary = (
        f"overhead {rec['overhead_frac'] * 100:+.2f}% "
        f"({rec['spans_per_frame']:.0f} spans/frame), "
        f"bit-identical={rec['bit_identical']}"
    )
    if not rec["bit_identical"]:
        return False, f"gate failed: outputs differ with obs enabled ({summary})"
    if (cores or 1) < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    ok = rec["overhead_frac"] <= 0.05
    return ok, f"{summary} (need <= +5.00%)"


def _health_gate(rec: dict, cores: int | None) -> tuple[bool, str]:
    """PR-9: ≤5% overhead with the full health plane on (obs + flight
    recorder mirror + monitor tick loop), gated on ≥2 cores; the
    three-way bit-identical check is required on every host."""
    summary = (
        f"health-plane overhead {rec['health_overhead_frac'] * 100:+.2f}%, "
        f"bit-identical={rec['bit_identical']}"
    )
    if not rec["bit_identical"]:
        return False, f"gate failed: outputs differ with health on ({summary})"
    if (cores or 1) < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    ok = rec["health_overhead_frac"] <= 0.05
    return ok, f"{summary} (need <= +5.00%)"


def _fault_gate(rec: dict, cores: int | None) -> tuple[bool, str]:
    """≤5% installed-but-idle injector overhead on the live frame loop,
    gated on ≥2 cores; bit-identical outputs and zero fired faults are
    required on every host."""
    summary = (
        f"idle-injector overhead {rec['overhead_frac'] * 100:+.2f}%, "
        f"bit-identical={rec['bit_identical']}, fired={rec['faults_fired']}"
    )
    if not rec["bit_identical"] or rec["faults_fired"] != 0:
        return False, f"gate failed: outputs differ or faults fired ({summary})"
    if (cores or 1) < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    ok = rec["overhead_frac"] <= 0.05
    return ok, f"{summary} (need <= +5.00%)"


def _batch_gate(sweep: dict, fork: dict, cores: int | None) -> tuple[bool, str]:
    """≥10× warm batched N-1 sweep vs the serial loop, gated on ≥2 cores;
    O(delta) fork payloads (≥100× smaller than the network) and ≤1e-9
    batch/serial loading parity are required on every host."""
    ratio = min(rec["bytes_ratio"] for rec in fork.values())
    summary = (
        f"batched sweep {sweep['batch_speedup_vs_serial']:.1f}x, "
        f"parity {sweep['max_abs_dloading']:.1e}, "
        f"fork payload {ratio:.0f}x smaller than the network"
    )
    if ratio < 100:
        return False, f"gate failed: fork payload not O(delta) ({summary})"
    if sweep["max_abs_dloading"] > 1e-9:
        return False, f"gate failed: batch/serial parity ({summary})"
    if (cores or 1) < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    ok = sweep["batch_speedup_vs_serial"] >= 10.0
    return ok, f"{summary} (need >= 10.0x)"


def _condensation_gate(cond: dict, cores: int | None) -> tuple[bool, str]:
    """≤1e-8 condensed/reference parity on every case (every host), ≥5×
    WECC-scale exchange-byte reduction (every host), and a measurable
    WECC-scale warm Step-2 time reduction (≥2 cores — on a single core
    the solve timings are swamped by scheduler jitter)."""
    wecc = cond["wecc37"]
    parity = max(
        max(rec["max_abs_dVm"], rec["max_abs_dVa"]) for rec in cond.values()
    )
    summary = (
        f"parity {parity:.1e}, wecc bytes {wecc['bytes_reduction']:.1f}x "
        f"smaller, wecc step2 {wecc['step2_speedup']:.2f}x"
    )
    if parity > 1e-8:
        return False, f"gate failed: parity worse than 1e-8 ({summary})"
    if wecc["bytes_reduction"] < 5.0:
        return False, f"gate failed: exchange reduction < 5x ({summary})"
    if (cores or 1) < 2:
        return True, f"time gate skipped: {cores} core(s) < 2 ({summary})"
    ok = wecc["step2_speedup"] > 1.0
    return ok, f"{summary} (need parity <= 1e-8, >= 5x bytes, > 1x step2)"


def _recovery_gate(ov: dict, rec: dict, cores: int | None) -> tuple[bool, str]:
    """≤5% recovery-plane (checkpoints + heartbeats) overhead on the
    live frame loop, gated on ≥ 2 cores; bit-identical clean outputs and
    full recovery from every injected site kill are required on every
    host."""
    summary = (
        f"recovery overhead {ov['overhead_frac'] * 100:+.2f}%, "
        f"bit-identical={ov['bit_identical']}, "
        f"frames-to-recovery mean {rec['mean_frames_to_recovery']:.1f} "
        f"max {rec['max_frames_to_recovery']}"
    )
    if not ov["bit_identical"]:
        return False, f"gate failed: clean recovery-on run diverged ({summary})"
    if not rec["all_recovered"] or rec["max_abs_state_delta"] > 1e-7:
        return False, (
            f"gate failed: a site kill did not recover "
            f"(delta {rec['max_abs_state_delta']:.1e}, {summary})"
        )
    if (cores or 1) < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    ok = ov["overhead_frac"] <= 0.05
    return ok, f"{summary} (need <= +5.00%)"


def _serving_gate(cap: dict) -> tuple[bool, str]:
    """Every offered request resolves (zero hung / untyped failures) on
    every host; on ≥ 2 cores the two-shard router must sustain ≥ 1.5× the
    single-service capacity within the p99 SLO and the one-shard router
    path must stay within 5% of the direct p50 latency."""
    cores = cap["cores"] or 1
    for name, rec in cap["configs"].items():
        for row in rec["rows"]:
            if row["n_hung"] or row["n_failed"]:
                return False, (
                    f"gate failed: {name} at {row['offered_rate']:.0f}/s "
                    f"had {row['n_hung']} hung / {row['n_failed']} untyped "
                    "failures"
                )
    direct = cap["configs"]["direct"]["capacity_per_s"]
    sharded = cap["configs"]["router2"]["capacity_per_s"]
    overhead = cap["router1_overhead"]["overhead_frac"]
    summary = (
        f"capacity direct {direct:.0f}/s vs 2-shard {sharded:.0f}/s, "
        f"router-layer p50 overhead {overhead * 100:+.1f}%"
    )
    if cores < 2:
        return True, f"gate skipped: {cores} core(s) < 2 (recorded: {summary})"
    ok = sharded >= 1.5 * direct and overhead <= 0.05
    return ok, f"{summary} (need >= 1.5x capacity and <= +5% p50)"


def main() -> int:
    net, pf, dec, ms = _setup118()

    print("running hot-path comparison (seed vs optimised) ...")
    hotpath = bench_hotpath(net, pf, dec, ms)
    print(f"  seed {hotpath['seed_time_s'] * 1e3:.1f} ms  "
          f"optimised {hotpath['optimized_time_s'] * 1e3:.1f} ms  "
          f"speedup {hotpath['speedup']:.2f}x")

    print("running E8 (Figure 6 end-to-end cycle) ...")
    fig6 = bench_fig6(net, pf)
    print(f"  wall {fig6['wall_time_s'] * 1e3:.1f} ms, "
          f"sim total {fig6['sim_total_s'] * 1e3:.2f} ms")

    print("running A1 (PCG solver ablation) ...")
    pcg = bench_pcg_ablation(net, pf, ms)
    for name, rec in pcg.items():
        print(f"  {name:>12}: {rec['iterations']} iterations")

    print("running scale-out throughput grid ...")
    scaleout = bench_scaleout(net, dec, ms)
    for spec, rec in scaleout["contingency_throughput"].items():
        print(f"  contingency {spec:>12}: {rec['cases_per_s']:8.1f} cases/s")
    scaleout_ok, scaleout_msg = _scaleout_gate(scaleout)
    print(f"  {scaleout_msg}")

    print("running middleware fast path (localhost TCP) ...")
    fastpath = bench_middleware_fastpath()
    tp = fastpath["small_message_throughput"]
    print(f"  legacy {tp['legacy_msgs_per_s']:8.0f} msgs/s  "
          f"pooled {tp['pooled_msgs_per_s']:8.0f}  "
          f"batched {tp['batched_msgs_per_s']:8.0f}")
    fastpath_ok, fastpath_msg = _fastpath_gate(fastpath)
    print(f"  {fastpath_msg}")

    print("running observability overhead (warm DSE frame loop) ...")
    obs_overhead = measure_obs_overhead()
    print(f"  disabled {obs_overhead['disabled_time_s'] * 1e3:.1f} ms  "
          f"enabled {obs_overhead['enabled_time_s'] * 1e3:.1f} ms")
    obs_ok, obs_msg = _obs_gate(obs_overhead, os.cpu_count())
    print(f"  {obs_msg}")
    health_ok, health_msg = _health_gate(obs_overhead, os.cpu_count())
    print(f"  {health_msg}")

    print("running fault-injection hook overhead (live frame loop) ...")
    fault_overhead = measure_fault_overhead()
    print(f"  uninstalled {fault_overhead['uninstalled_time_s'] * 1e3:.1f} ms  "
          f"idle injector {fault_overhead['installed_idle_time_s'] * 1e3:.1f} ms")
    fault_ok, fault_msg = _fault_gate(fault_overhead, os.cpu_count())
    print(f"  {fault_msg}")

    print("running batched scenario sweep (fork cost + N-1 throughput) ...")
    fork_cost = measure_fork_cost()
    sweep = measure_sweep_throughput()
    print(f"  serial {sweep['serial_time_s'] * 1e3:.1f} ms  "
          f"batched {sweep['batch_time_s'] * 1e3:.1f} ms  "
          f"speedup {sweep['batch_speedup_vs_serial']:.1f}x")
    batch_ok, batch_msg = _batch_gate(sweep, fork_cost, os.cpu_count())
    print(f"  {batch_msg}")

    print("running boundary condensation comparison (PR-7) ...")
    condensation = measure_condensation()
    for name, rec in condensation.items():
        print(f"  {name:>8}: bytes {rec['bytes_reduction']:.2f}x smaller, "
              f"step2 {rec['step2_speedup']:.2f}x, "
              f"parity {max(rec['max_abs_dVm'], rec['max_abs_dVa']):.1e}")
    cond_ok, cond_msg = _condensation_gate(condensation, os.cpu_count())
    print(f"  {cond_msg}")

    print("running serving-capacity curve (PR-8, open-loop load) ...")
    capacity = measure_serving_capacity()
    for name, rec in capacity["configs"].items():
        print(f"  {name:>8}: capacity {rec['capacity_per_s']:8.1f}/s")
    serving_ok, serving_msg = _serving_gate(capacity)
    print(f"  {serving_msg}")

    print("running recovery plane (PR-10, overhead + site-kill failover) ...")
    recovery_overhead = measure_recovery_overhead()
    print(f"  off {recovery_overhead['recovery_off_time_s'] * 1e3:.1f} ms  "
          f"on {recovery_overhead['recovery_on_time_s'] * 1e3:.1f} ms")
    frames_to_recovery = measure_frames_to_recovery()
    recovery_ok, recovery_msg = _recovery_gate(
        recovery_overhead, frames_to_recovery, os.cpu_count())
    print(f"  {recovery_msg}")

    payload = {
        "pr": 10,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "hotpath_dse": hotpath,
        "fig6_end_to_end": fig6,
        "pcg_solver_ablation": pcg,
        "scaleout": scaleout,
        "scaleout_gate": scaleout_msg,
        "middleware_fastpath": fastpath,
        "middleware_fastpath_gate": fastpath_msg,
        "obs_overhead": obs_overhead,
        "obs_overhead_gate": obs_msg,
        "health_overhead_gate": health_msg,
        "fault_overhead": fault_overhead,
        "fault_overhead_gate": fault_msg,
        "fork_cost": fork_cost,
        "batch_sweep": sweep,
        "batch_sweep_gate": batch_msg,
        "condensation": condensation,
        "condensation_gate": cond_msg,
        "serving_capacity": capacity,
        "serving_capacity_gate": serving_msg,
        "recovery_overhead": recovery_overhead,
        "frames_to_recovery": frames_to_recovery,
        "recovery_gate": recovery_msg,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")

    ok = hotpath["speedup"] >= 1.5 and hotpath["max_abs_dVm"] < 1e-10
    gates = [
        (ok, "speedup < 1.5x or parity worse than 1e-10"),
        (scaleout_ok, scaleout_msg),
        (fastpath_ok, fastpath_msg),
        (obs_ok, obs_msg),
        (health_ok, health_msg),
        (fault_ok, fault_msg),
        (batch_ok, batch_msg),
        (cond_ok, cond_msg),
        (serving_ok, serving_msg),
        (recovery_ok, recovery_msg),
    ]
    for gate_ok, msg in gates:
        if not gate_ok:
            print(f"ACCEPTANCE FAILED: {msg}")
    return 0 if all(gate_ok for gate_ok, _ in gates) else 1


if __name__ == "__main__":
    raise SystemExit(main())
