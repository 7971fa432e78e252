"""Middleware fabric: the estimator sites' data plane.

In the paper "each MeDICi pipeline is responsible for a one-way
communication between two state estimators"; that per-pair relay is
:class:`~repro.middleware.pipeline.MifPipeline` (measured directly by the
Table III benchmark).  ``MiddlewareFabric`` routes the same set of
directed (src, dst) pairs through one mux router hub
(:mod:`repro.middleware.fastpath`): every site keeps exactly one duplex
connection to the hub, frames carry (src, dst) ids in a compact binary
header, so the hub forwards without re-dialing and a site's whole
neighbour burst can ride one syscall via :meth:`MiddlewareFabric.send_many`.
"""

from __future__ import annotations

from .. import obs
from .client import EndpointRegistry, MWClient
from .fastpath import InprocMuxRouter, MuxRouter
from .hashring import ConsistentHashRing
from .message import (
    FLAG_CHECKPOINT,
    FLAG_EPOCH,
    FLAG_TELEMETRY,
    FLAG_TRACED,
    attach_epoch,
    attach_trace_context,
)

__all__ = ["MiddlewareFabric"]


class MiddlewareFabric:
    """Builds and owns the middleware plumbing for named estimators.

    Parameters
    ----------
    names:
        Estimator names (e.g. ``["se0", "se1", ...]``).
    pairs:
        Directed neighbour pairs to connect; ``None`` wires all ordered
        pairs.
    use_tcp:
        Real localhost TCP when True; in-process queues otherwise.
    """

    def __init__(
        self,
        names: list[str],
        pairs: list[tuple[str, str]] | None = None,
        *,
        use_tcp: bool = False,
    ):
        if len(set(names)) != len(names):
            raise ValueError("duplicate estimator names")
        self.names = list(names)
        self.use_tcp = use_tcp
        self.clients: dict[str, MWClient] = {}
        self._hub = MuxRouter() if use_tcp else InprocMuxRouter()
        self._links: dict[str, object] = {}
        self._ids = {name: i for i, name in enumerate(self.names)}

        if pairs is None:
            pairs = [(a, b) for a in names for b in names if a != b]
        self.pairs = list(pairs)
        for a, b in self.pairs:
            if a not in self.names or b not in self.names:
                raise ValueError(f"pair ({a}, {b}) references unknown estimator")
        self._pair_set = set(self.pairs)

        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the hub and attach one duplex link per site."""
        if self._started:
            raise RuntimeError("fabric already started")
        self._hub.start()
        for name in self.names:
            # the client is the site's receive buffer and byte counter;
            # inbound frames land through the same accounting path as a
            # served endpoint
            client = MWClient(name, EndpointRegistry())
            self.clients[name] = client
            self._links[name] = self._hub.attach(
                self._ids[name], client._deliver
            )
        self._started = True

    def stop(self) -> None:
        for link in self._links.values():
            link.close()
        self._hub.stop()
        for client in self.clients.values():
            client.close()
        self._started = False

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # ------------------------------------------------------------------
    def _check_pair(self, src: str, dst: str) -> None:
        if (src, dst) not in self._pair_set:
            raise KeyError(f"no pipeline for {src} -> {dst}")

    def send(self, src: str, dst: str, payload: bytes) -> None:
        """Send through the (src → dst) data plane — estimator → router
        hop → destination buffer."""
        self.send_many(src, [(dst, payload)])

    def send_many(self, src: str, frames, *, epoch: int | None = None) -> None:
        """Send a burst of ``(dst, payload)`` frames from one site; they
        all ride one scatter-gather syscall.

        ``epoch`` stamps every frame with the cluster epoch so the hub's
        fence can reject a zombie sender's frames after a failover (see
        :meth:`set_epoch_fence`).
        """
        frames = list(frames)
        if not frames:
            return
        for dst, _ in frames:
            self._check_pair(src, dst)
        nbytes = sum(len(p) for _, p in frames)
        flags = 0
        if epoch is not None:
            # epoch sits inside the trace context on the wire: attach
            # it first, trace-wrap after
            frames = [(dst, attach_epoch(p, epoch)[0]) for dst, p in frames]
            flags |= FLAG_EPOCH
        # the calling thread's span context rides the wire (context
        # propagation); no-op outside sampled spans
        ctx = obs.current_context()
        if ctx is not None and ctx.sampled:
            frames = [
                (dst, attach_trace_context(p, ctx)[0]) for dst, p in frames
            ]
            flags |= FLAG_TRACED
        self._links[src].send_many(
            ((self._ids[dst], payload) for dst, payload in frames),
            flags=flags,
        )
        self.clients[src].bytes_sent += nbytes

    # -- shard-addressed routing ---------------------------------------
    def enable_sharding(
        self, shards: list[str] | None = None, *, vnodes: int = 64
    ) -> ConsistentHashRing:
        """Turn on key-addressed sends over a subset of sites.

        ``shards`` (default: every site) become consistent-hash targets;
        :meth:`send_keyed` then routes a frame by key instead of by name.
        Returns the ring so callers can adjust membership (a removed
        shard's keyspace falls to its clockwise successors — the same
        placement rule the serving tier's ``ShardRouter`` uses, so a
        co-located router and fabric agree on every key).
        """
        shards = list(self.names) if shards is None else list(shards)
        for name in shards:
            if name not in self.names:
                raise ValueError(f"shard {name!r} is not a fabric site")
        self._shard_ring = ConsistentHashRing(shards, vnodes=vnodes)
        return self._shard_ring

    def shard_for(self, key, *, exclude: str | None = None) -> str:
        """The site owning ``key`` (first live preference, skipping
        ``exclude`` — a sender that cannot deliver to itself)."""
        ring = getattr(self, "_shard_ring", None)
        if ring is None:
            raise RuntimeError("call enable_sharding() first")
        for name in ring.preference(key):
            if name != exclude:
                return name
        raise KeyError(f"no shard available for key {key!r}")

    def send_keyed(self, src: str, key, payload: bytes) -> str:
        """Send ``payload`` to the shard owning ``key``; returns the
        destination name the key hashed to."""
        dst = self.shard_for(key, exclude=src)
        self.send(src, dst, payload)
        if obs.enabled():
            obs.metrics().counter(
                "router.keyed_frames_total", dst=dst
            ).inc()
        return dst

    # -- telemetry plane -----------------------------------------------
    def enable_telemetry(self, sink) -> None:
        """Attach the cluster-side telemetry sink at the mux hub.

        ``sink(payload: bytes)`` receives every ``FLAG_TELEMETRY`` frame
        (typically :meth:`repro.obs.aggregate.TelemetryAggregator.ingest`);
        telemetry frames are consumed at the hub and never reach a site's
        deliver callback.
        """
        self._hub.set_telemetry_sink(sink)

    def send_telemetry(self, src: str, payload: bytes) -> None:
        """Ship one packed telemetry frame from site ``src`` to the hub
        sink (see :func:`repro.middleware.message.pack_telemetry`)."""
        # dst 0 is nominal — the hub consumes the frame before routing
        self._links[src].send(0, payload, flags=FLAG_TELEMETRY)
        if obs.enabled():
            obs.metrics().counter("mw.telemetry_frames_sent_total").inc()

    # -- recovery plane ------------------------------------------------
    def set_checkpoint_sink(self, name: str, sink) -> None:
        """Divert ``FLAG_CHECKPOINT`` frames addressed to site ``name``
        into ``sink(payload)`` instead of its ordinary receive queue (the
        recovery replica plane).  Call after :meth:`start`."""
        link = self._links[name]
        if hasattr(link, "checkpoint_sink"):
            # TCP: the frame is forwarded by the hub and diverted at the
            # receiving link's edge
            link.checkpoint_sink = sink
        else:
            # inproc: the hub delivers directly
            self._hub.set_checkpoint_sink(self._ids[name], sink)

    def send_checkpoint(
        self, src: str, dst: str, payload: bytes, *, epoch: int = 0
    ) -> None:
        """Replicate one checkpoint payload from ``src`` to ``dst``'s
        checkpoint sink, stamped with the cluster ``epoch``."""
        self._check_pair(src, dst)
        nbytes = len(payload)
        payload, _ = attach_epoch(payload, epoch)
        self._links[src].send(
            self._ids[dst], payload, flags=FLAG_CHECKPOINT | FLAG_EPOCH
        )
        self.clients[src].bytes_sent += nbytes
        if obs.enabled():
            obs.metrics().counter("mw.checkpoint_frames_sent_total").inc()

    def set_epoch_fence(self, fence) -> None:
        """Install ``fence(src_id, epoch) -> bool`` at the mux hub; frames
        stamped with a fenced (stale) epoch are dropped before routing."""
        self._hub.set_epoch_fence(fence)

    def site_id(self, name: str) -> int:
        """The wire-level id of site ``name`` (fence callbacks receive
        ids, not names)."""
        return self._ids[name]

    def recv(self, name: str, *, timeout: float = 5.0) -> bytes:
        """Take the next payload delivered to estimator ``name``."""
        return self.clients[name].recv(timeout=timeout)

    def relay_stats(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(frames, bytes) relayed per directed pair."""
        rev = {i: name for name, i in self._ids.items()}
        out = {pair: (0, 0) for pair in self.pairs}
        for (src_id, dst_id), rec in self._hub.stats().items():
            out[(rev[src_id], rev[dst_id])] = rec
        return out
