"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload session118 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  ``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` alternates untraced and traced quarters of the time and
prints the per-layer metrics (plus the tracing overhead between the two).
The last line of standard output is the JSON result; the line before it
carries details (tail percentile and sample count, set-up times, host
probe, versions, any failed check).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``BENCHMARK.json`` units of the end-to-end metrics
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "goodput_per_s": "1/s",
    "ok_frac": "frac",
    "vm_rmse": "pu",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="IEEE-14 inputs (smoke tests only)")
    return p.parse_args(argv)


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy as np

    from harness import host_info, host_probe, latency_summary, peak_rss_mb
    from tracing import Tracer, install, layer_metrics
    from workloads import N_SETUP, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print("error: imported repro from outside this checkout", file=sys.stderr)
        return 2

    host_ref = [host_probe()]
    tracer = Tracer()
    wl = WORKLOADS[args.workload](args.seed, args.tiny, tracer)
    secs = args.seconds
    # traced runs alternate untraced/traced/untraced/traced windows, so a
    # host that drifts during the run biases neither side of the overhead
    windows = [secs] if args.trace == 0 else [secs / 4] * 4
    wl.make_inputs(windows)

    setup_times = []
    sut = None
    for i in range(N_SETUP):
        t0 = time.perf_counter()
        sut = wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if i < N_SETUP - 1:
            wl.teardown(sut)

    problems: list[str] = []
    runs = []
    try:
        for w, window_s in enumerate(windows):
            traced = w % 2 == 1
            if traced:
                inst = install(tracer)
                tracer.active = True
            try:
                runs.append(wl.measure(sut, window_s, traced, window=w))
            finally:
                if traced:
                    tracer.active = False
                    inst.undo()
        for r in runs:
            problems += wl.check(sut, r)
    finally:
        wl.teardown(sut)
    host_ref.append(host_probe())

    m = runs[0]
    untraced, traced_runs = runs[0::2], runs[1::2]
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.errors) + r.bad for r in runs)
    lat = latency_summary([x for r in untraced for x in r.latencies], wl.tail_pct)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": secs,
        "trace": args.trace,
        "latency_tail_pct": lat["tail_pct"],
        "latency_samples": lat["n"],
        "latency_beyond_tail": lat["beyond_tail"],
        "setup_times_s": setup_times,
        "host_ref_ms": host_ref,
        "host": host_info(),
    }

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": lat["p50_ms"],
            "latency_tail_ms": lat["tail_ms"],
            "throughput_per_s": m.throughput,
            "goodput_per_s": m.goodput,
            "ok_frac": 1.0 - (len(m.errors) + m.bad) / m.attempted,
            "vm_rmse": float(np.median(m.vm_rmse)) if m.vm_rmse else float("nan"),
            "cpu_ms_per_op": 1e3 * m.cpu_s / m.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_UNITS
    else:
        n_ops = sum(r.attempted for r in traced_runs)
        units = layer_units()
        tot = tracer.totals()
        values = layer_metrics(tracer, n_ops)
        values.update({k: 0.0 for k in units if k.startswith("serving.")})
        if m.serving:
            for k in m.serving:
                values[k] = statistics.mean(r.serving[k] for r in traced_runs)
            busy = sum(tot.get(k, (0, 0.0, 0.0))[1]
                       for k in ("estimation.batch", "contingency.analyze_batch"))
            values["serving.busy_frac"] = busy / sum(r.wall_s for r in traced_runs)
        values["host.ref_ms"] = statistics.mean(host_ref)
        p50_traced = latency_summary(
            [x for r in traced_runs for x in r.latencies], wl.tail_pct
        )["p50_ms"]
        values["trace.overhead_frac"] = p50_traced / lat["p50_ms"] - 1.0
        values["trace.remainder_ms"] = 1e3 * tot.get("op", (0, 0.0, 0.0))[2] / n_ops
        values["trace.spans_per_op"] = len(tracer.spans) / n_ops
        nest = tracer.nesting_error()
        detail["trace_nesting_error_s"] = nest
        if nest > 1e-6:
            problems.append(f"span self times miss their root by {nest:.2e}s")
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        detail["spans_file"] = str(path.relative_to(ROOT))
        missing = set(units) - set(values)
        if missing:
            problems.append(f"per-layer metrics not produced: {sorted(missing)}")

    detail["problems"] = (problems + [e for r in runs for e in r.errors])[:20]
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            k: {"value": float(values[k]), "unit": u} for k, u in units.items()
            if k in values
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
