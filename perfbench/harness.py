"""Load drivers, statistics and the host-speed probe.

Everything here is the benchmark's own code: the closed loop calls one
operation after another from a single caller; the open loop submits on a
pre-generated arrival schedule and times every request from the moment it
was *due*, so a stall that delays later sends is charged to them.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from dataclasses import dataclass, field

import numpy as np

def latency_summary(lat_s, tail_pct: float) -> dict:
    """Median and the ``tail_pct`` percentile of latencies given in
    seconds, reported in ms, with the number of samples beyond the tail."""
    lat = np.asarray(lat_s, dtype=float) * 1e3
    if not len(lat):
        return {"p50_ms": float("nan"), "tail_ms": float("nan"),
                "tail_pct": tail_pct, "n": 0, "beyond_tail": 0}
    tail = float(np.percentile(lat, tail_pct))
    return {
        "p50_ms": float(np.median(lat)),
        "tail_ms": tail,
        "tail_pct": tail_pct,
        "n": int(len(lat)),
        "beyond_tail": int(np.sum(lat > tail)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host-speed probe ----------------------------------------------------------
_PROBE_RNG_SEED = 12345


def host_probe(repeats: int = 5) -> float:
    """Median wall time (ms) of a fixed pure-numpy work unit.

    The unit never touches the program under test, so a drift between runs
    that shows here is the host, not the code.  It uses only single-threaded
    numpy kernels: a threaded BLAS call would time the other core's load.
    """
    rng = np.random.default_rng(_PROBE_RNG_SEED)
    v = rng.standard_normal(200_000)
    buf = np.empty_like(v)
    acc = np.empty_like(v)
    a = rng.standard_normal((48, 48))
    prod = np.empty_like(a)
    times = []
    # in place throughout: allocating the arrays would time the allocator's
    # state (page faults early in a process), not the host
    for _ in range(repeats + 1):  # the first pass warms caches; dropped
        t0 = time.perf_counter()
        for _ in range(4):
            buf[:] = v
            buf.sort()
            np.sqrt(np.abs(buf, out=buf), out=buf)
            np.cumsum(buf, out=acc)
            for _ in range(50):
                np.matmul(a, a, out=prod)
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times[1:]))


def host_info() -> dict:
    import numpy
    import scipy

    blas = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    )}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas_name = cfg["Build Dependencies"]["blas"]["name"]
    except Exception:  # show_config layout differs across numpy versions
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": blas,
    }


# -- closed loop ---------------------------------------------------------------
@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # (input index, output)
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.errors)


def closed_loop(op, n_inputs: int, seconds: float, *, before=None, after=None) -> LoopResult:
    """One caller: run ``op(i)`` over the input pool, cycling, until
    ``seconds`` have passed (the operation in flight then completes).

    ``before(i)``/``after(i)`` run around each operation inside the timed
    region (the traced run opens and closes its operation span there).
    """
    res = LoopResult()
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    t_end = t_start + seconds
    i = 0
    while True:
        k = i % n_inputs
        if before is not None:
            before(i)
        t0 = time.perf_counter()
        try:
            out = op(k)
        except Exception as exc:  # a failed operation is counted, not fatal
            t1 = time.perf_counter()
            res.errors.append(f"op {i}: {exc!r}")
        else:
            t1 = time.perf_counter()
            res.latencies.append(t1 - t0)
            res.outputs.append((k, out))
        if after is not None:
            after(i)
        i += 1
        if t1 >= t_end:
            break
    res.wall_s = time.perf_counter() - t_start
    res.cpu_s = time.process_time() - cpu0
    return res


# -- open loop -----------------------------------------------------------------
def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``seconds``."""
    n = int(rate * seconds * 1.5) + 16
    t = np.cumsum(rng.exponential(1.0 / rate, n))
    return t[t < seconds]


@dataclass
class OpenLoopResult:
    scheduled: np.ndarray  # absolute due times (perf_counter)
    sent: np.ndarray  # actual submit times
    done: np.ndarray  # completion times (nan when never completed)
    values: list  # ScenarioResult per request (None on failure)
    exceptions: list  # the exception per request (None on success)
    wall_s: float
    cpu_s: float

    @property
    def latencies(self) -> np.ndarray:
        """Completion minus due time, seconds (nan for failed requests)."""
        return self.done - self.scheduled

    @property
    def lateness(self) -> np.ndarray:
        return self.sent - self.scheduled


def open_loop(submit, requests: list, offsets: np.ndarray, *, drain_timeout: float = 60.0) -> OpenLoopResult:
    """Submit ``requests[i]`` at ``offsets[i]`` seconds from now.

    ``submit(request)`` must return a future.  The generator sleeps until
    each due time (never sending early); completion is stamped by a done
    callback.  Returns after every future resolved or ``drain_timeout``
    passed after the last send.
    """
    n = len(requests)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    futures = []
    cpu0 = time.process_time()
    start = time.perf_counter() + 0.02
    due = start + np.asarray(offsets, dtype=float)

    def stamp(i):
        def cb(_fut):
            done[i] = time.perf_counter()
        return cb

    for i in range(n):
        target = due[i]
        while True:
            now = time.perf_counter()
            if now >= target:
                break
            time.sleep(min(target - now, 0.002))
        sent[i] = time.perf_counter()
        fut = submit(requests[i])
        fut.add_done_callback(stamp(i))
        futures.append(fut)

    values: list = []
    exceptions: list = []
    deadline = time.perf_counter() + drain_timeout
    for fut in futures:
        try:
            values.append(fut.result(timeout=max(0.0, deadline - time.perf_counter())))
            exceptions.append(None)
        except Exception as exc:  # failed, shed or hung: a miss
            values.append(None)
            exceptions.append(exc)
    # a future's waiters wake before its callbacks run: let the last
    # completion stamps land before reading them
    ok = np.array([v is not None for v in values], dtype=bool)
    t_wait = time.perf_counter() + 1.0
    while np.isnan(done[ok]).any() and time.perf_counter() < t_wait:
        time.sleep(0.001)
    done[~ok] = np.nan
    return OpenLoopResult(
        scheduled=due, sent=sent, done=done, values=values, exceptions=exceptions,
        wall_s=time.perf_counter() - start, cpu_s=time.process_time() - cpu0,
    )
