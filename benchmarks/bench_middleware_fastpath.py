"""Middleware fast path: legacy connect-per-message vs pooled/multiplexed.

The PR-3 headline benchmark.  The paper's middleware experiments (Tables
III/IV) measure bulk transfers; the quantity that dominates a *running*
distributed state estimation is different — thousands of small
boundary-exchange messages per second (a pseudo-measurement record for a
handful of tie-line buses is a few hundred bytes).  This benchmark
measures exactly that regime over real localhost TCP:

- **legacy** — the seed's connect-per-message pattern (one TCP dial per
  send, ``MWClient(pool=False)``);
- **pooled** — one persistent connection per destination, reused across
  sends;
- **batched** — pooled + ``send_many`` so a burst rides one
  scatter-gather syscall;
- **fabric legacy / fabric fast** — the full data path including the
  store-and-forward hop: the paper's one-way relay (a standalone
  ``MifPipeline`` into a served, pooled ``MWClient``) vs
  ``MiddlewareFabric``'s mux router.

``measure_small_message_throughput`` / ``measure_roundtrip_latency`` /
``measure_fabric_throughput`` are importable by ``record_bench.py``; the
``test_*`` wrappers print the comparison for ``pytest benchmarks/ -s``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.middleware import (
    EndpointRegistry,
    MiddlewareFabric,
    MifComponent,
    MifPipeline,
    MWClient,
    pack_state_update,
)

#: a boundary-exchange record for ~24 tie-line buses (8 + 24*24 bytes)
def exchange_payload(n_buses: int = 24) -> bytes:
    rng = np.random.default_rng(0)
    return bytes(
        pack_state_update(
            np.arange(n_buses, dtype=np.int64),
            1.0 + 0.02 * rng.standard_normal(n_buses),
            0.1 * rng.standard_normal(n_buses),
        )
    )


def _drain(client: MWClient, n: int, timeout: float = 60.0) -> None:
    for _ in range(n):
        client.recv(timeout=timeout)


# ----------------------------------------------------------------------
# point-to-point small-message throughput
# ----------------------------------------------------------------------
def measure_small_message_throughput(
    n_msgs: int = 1500, *, payload: bytes | None = None, batch: int = 64
) -> dict:
    """Messages/second for one sender → one receiver over localhost TCP."""
    payload = payload if payload is not None else exchange_payload()
    out = {"n_msgs": n_msgs, "payload_bytes": len(payload)}

    for mode in ("legacy", "pooled", "batched"):
        registry = EndpointRegistry()
        rx = MWClient("rx", registry)
        rx.serve("tcp://127.0.0.1:0")
        tx = MWClient("tx", registry, pool=(mode != "legacy"))
        try:
            t0 = time.perf_counter()
            if mode == "batched":
                for i in range(0, n_msgs, batch):
                    tx.send_many(
                        "rx", [payload] * min(batch, n_msgs - i)
                    )
            else:
                for _ in range(n_msgs):
                    tx.send("rx", payload)
            _drain(rx, n_msgs)
            elapsed = time.perf_counter() - t0
        finally:
            tx.close()
            rx.close()
        out[f"{mode}_msgs_per_s"] = n_msgs / elapsed
        out[f"{mode}_time_s"] = elapsed
        out[f"{mode}_dials"] = tx.dials

    out["pooled_speedup"] = out["pooled_msgs_per_s"] / out["legacy_msgs_per_s"]
    out["batched_speedup"] = out["batched_msgs_per_s"] / out["legacy_msgs_per_s"]
    return out


# ----------------------------------------------------------------------
# round-trip latency
# ----------------------------------------------------------------------
def measure_roundtrip_latency(n: int = 400, *, payload: bytes | None = None) -> dict:
    """p50/p95 echo round-trip over localhost TCP, legacy vs pooled."""
    payload = payload if payload is not None else exchange_payload()
    out = {"n_roundtrips": n, "payload_bytes": len(payload)}

    for mode in ("legacy", "pooled"):
        pool = mode != "legacy"
        registry = EndpointRegistry()
        a = MWClient("a", registry, pool=pool)
        b = MWClient("b", registry, pool=pool)
        a.serve("tcp://127.0.0.1:0")
        b.serve("tcp://127.0.0.1:0")
        stop = threading.Event()

        def echo():
            while not stop.is_set():
                try:
                    msg = b.recv(timeout=0.5)
                except TimeoutError:
                    continue
                except Exception:
                    break
                b.send("a", msg)

        th = threading.Thread(target=echo, daemon=True)
        th.start()
        try:
            samples = []
            for _ in range(n):
                t0 = time.perf_counter()
                a.send("b", payload)
                a.recv(timeout=30)
                samples.append(time.perf_counter() - t0)
        finally:
            stop.set()
            th.join(timeout=2)
            a.close()
            b.close()
        samples.sort()
        out[f"{mode}_p50_s"] = samples[len(samples) // 2]
        out[f"{mode}_p95_s"] = samples[min(len(samples) - 1, int(0.95 * len(samples)))]

    out["p50_improvement"] = out["legacy_p50_s"] / out["pooled_p50_s"]
    return out


# ----------------------------------------------------------------------
# full data path through the store-and-forward hop
# ----------------------------------------------------------------------
def _relay_arm(n_msgs: int, payload: bytes) -> tuple[float, int]:
    """a→b through one one-way relay pipeline (the paper's per-pair
    MeDICi pipeline) into b's served, pooled client; returns
    ``(elapsed_s, messages received intact)``."""
    registry = EndpointRegistry()
    rx = MWClient("b", registry)
    rx.serve("tcp://127.0.0.1:0")
    tx = MWClient("a", registry)
    pipeline = MifPipeline()
    comp = MifComponent("a->b")
    pipeline.add_mif_component(comp)
    comp.set_in_endpoint("tcp://127.0.0.1:0")
    comp.set_out_endpoint(registry.resolve("b"))
    pipeline.start()
    try:
        t0 = time.perf_counter()
        for _ in range(n_msgs):
            tx.send(comp.in_endpoint, payload)
        got = sum(rx.recv(timeout=60) == payload for _ in range(n_msgs))
        return time.perf_counter() - t0, got
    finally:
        pipeline.stop()
        tx.close()
        rx.close()


def _hub_arm(n_msgs: int, payload: bytes) -> tuple[float, int]:
    """a→b through ``MiddlewareFabric``'s mux router hub."""
    with MiddlewareFabric(["a", "b"], pairs=[("a", "b")], use_tcp=True) as fab:
        t0 = time.perf_counter()
        for _ in range(n_msgs):
            fab.send("a", "b", payload)
        got = sum(fab.recv("b", timeout=60) == payload for _ in range(n_msgs))
        return time.perf_counter() - t0, got


def measure_fabric_throughput(n_msgs: int = 1000, *, payload: bytes | None = None) -> dict:
    """Sustained a→b messages/second through the full data path, over
    localhost TCP: a per-pair relay pipeline (``legacy``) vs the fabric's
    multiplexed router hub (``fast``).  ``{mode}_received`` counts the
    messages that arrived intact."""
    payload = payload if payload is not None else exchange_payload()
    out = {"n_msgs": n_msgs, "payload_bytes": len(payload)}
    for mode, arm in (("legacy", _relay_arm), ("fast", _hub_arm)):
        elapsed, got = arm(n_msgs, payload)
        out[f"{mode}_msgs_per_s"] = n_msgs / elapsed
        out[f"{mode}_time_s"] = elapsed
        out[f"{mode}_received"] = got
    out["fabric_speedup"] = out["fast_msgs_per_s"] / out["legacy_msgs_per_s"]
    return out


# ----------------------------------------------------------------------
# pytest wrappers
# ----------------------------------------------------------------------
def test_small_message_throughput(benchmark):
    rec = measure_small_message_throughput()
    print("\nMiddleware fast path — sustained small-message throughput "
          f"({rec['payload_bytes']} B payloads, localhost TCP)")
    print(f"{'mode':>8} | {'msgs/s':>10} | {'dials':>6}")
    for mode in ("legacy", "pooled", "batched"):
        print(f"{mode:>8} | {rec[f'{mode}_msgs_per_s']:10.0f} "
              f"| {rec[f'{mode}_dials']:6d}")
    print(f"pooled speedup {rec['pooled_speedup']:.1f}x, "
          f"batched speedup {rec['batched_speedup']:.1f}x")
    # pooling must beat one-dial-per-message, and stop re-dialing
    assert rec["pooled_dials"] == 1
    assert rec["batched_dials"] == 1
    assert rec["pooled_msgs_per_s"] > rec["legacy_msgs_per_s"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_roundtrip_latency(benchmark):
    rec = measure_roundtrip_latency()
    print("\nMiddleware fast path — echo round-trip latency")
    for mode in ("legacy", "pooled"):
        print(f"{mode:>8}: p50 {rec[f'{mode}_p50_s'] * 1e6:8.1f} us   "
              f"p95 {rec[f'{mode}_p95_s'] * 1e6:8.1f} us")
    print(f"p50 improvement {rec['p50_improvement']:.1f}x")
    assert rec["pooled_p50_s"] < rec["legacy_p50_s"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_fabric_throughput(benchmark):
    rec = measure_fabric_throughput()
    print("\nMiddleware fast path — full data path (client → hop → buffer)")
    for mode in ("legacy", "fast"):
        print(f"{mode:>8}: {rec[f'{mode}_msgs_per_s']:10.0f} msgs/s")
    print(f"fabric speedup {rec['fabric_speedup']:.1f}x")
    # both paths must deliver everything; the mux hub must not be slower
    # than a per-pair pipeline by more than noise
    assert rec["legacy_received"] == rec["fast_received"] == rec["n_msgs"]
    assert rec["fast_msgs_per_s"] > 0.5 * rec["legacy_msgs_per_s"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
