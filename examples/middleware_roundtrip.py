"""Middleware round-trip smoke (in-process and localhost TCP).

Run with::

    python examples/middleware_roundtrip.py

Exercises the middleware end to end in a few hundred milliseconds:

- a pooled ``MWClient`` pair over localhost TCP (persistent connection,
  ``send`` + ``send_many``, event-driven receive);
- ``MiddlewareFabric``, whose one data plane is the multiplexed router
  hub, on both the in-process and the TCP hub, including a packed
  state-update exchange decoded with the zero-copy
  ``unpack_state_update``.

Every payload is verified byte-for-byte; the script exits non-zero on any
mismatch, so ``scripts/verify.sh`` uses it as the middleware smoke test.
"""

import time

import numpy as np

from repro.middleware import (
    EndpointRegistry,
    MiddlewareFabric,
    MWClient,
    pack_state_update,
    unpack_state_update,
)


def smoke_pooled_client(n: int = 200) -> None:
    """Pooled point-to-point round trip over localhost TCP."""
    registry = EndpointRegistry()
    rx = MWClient("rx", registry)
    rx.serve("tcp://127.0.0.1:0")
    tx = MWClient("tx", registry)
    try:
        payloads = [bytes([i % 256]) * (64 + i) for i in range(n)]
        t0 = time.perf_counter()
        for p in payloads[: n // 2]:
            tx.send("rx", p)
        tx.send_many("rx", payloads[n // 2 :])
        got = [rx.recv(timeout=10) for _ in range(n)]
        dt = time.perf_counter() - t0
        assert [bytes(g) for g in got] == payloads, "payload mismatch"
        assert tx.dials == 1, f"expected 1 dial, got {tx.dials}"
        print(f"pooled MWClient : {n} msgs over 1 connection in "
              f"{dt * 1e3:.1f} ms ({n / dt:.0f} msgs/s)")
    finally:
        tx.close()
        rx.close()


def smoke_fabric(use_tcp: bool, n: int = 100) -> None:
    """State-update exchange through the multiplexed fabric hub."""
    rng = np.random.default_rng(7)
    ids = np.arange(24, dtype=np.int64)
    vm = 1 + 0.01 * rng.standard_normal(24)
    va = 0.1 * rng.standard_normal(24)
    update = bytes(pack_state_update(ids, vm, va))

    with MiddlewareFabric(
        ["a", "b"], pairs=[("a", "b"), ("b", "a")], use_tcp=use_tcp
    ) as fab:
        t0 = time.perf_counter()
        for _ in range(n):
            fab.send("a", "b", update)
        for _ in range(n):
            raw = fab.recv("b", timeout=10)
        dt = time.perf_counter() - t0
        got_ids, got_vm, got_va = unpack_state_update(raw)
        assert np.array_equal(got_ids, ids), "bus ids corrupted in transit"
        assert np.array_equal(got_vm, vm) and np.array_equal(got_va, va), \
            "state values corrupted in transit"
        (frames, nbytes) = fab.relay_stats()[("a", "b")]
        assert frames == n and nbytes == n * len(update)
        label = "tcp" if use_tcp else "inproc"
        print(f"mux fabric  ({label:>6}): {n} state updates "
              f"({len(update)} B) in {dt * 1e3:.1f} ms ({n / dt:.0f} msgs/s)")


def main() -> None:
    smoke_pooled_client()
    smoke_fabric(use_tcp=False)
    smoke_fabric(use_tcp=True)
    print("middleware round-trip: OK")


if __name__ == "__main__":
    main()
