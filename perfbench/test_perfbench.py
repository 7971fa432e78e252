"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

A tiny-size smoke run of every workload in both modes (IEEE-14, one
second), result keys checked against
``BENCHMARK.json``, a second seed that must change the inputs and still pass
every check, and the tracer's bookkeeping.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import latency_summary, open_loop  # noqa: E402
from tracing import Tracer, TimingExecutor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,seed", [(0, 1), (1, 2)])
def test_smoke_every_workload(workload, trace, seed):
    p = run_bench(workload, seed, trace)
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    for v in result["metrics"].values():
        assert np.isfinite(v["value"])
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["host.ref_ms"]["value"] > 0
        assert detail["trace_nesting_error_s"] <= 1e-6


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs(workload):
    def inputs(seed):
        wl = WORKLOADS[workload](seed, True, Tracer())
        wl.make_inputs([1.0])
        if workload == "whatif118":
            return [z for _, z, _ in wl.est_pool] + [wl.windows[0]["phases"][0][0]]
        return [f.mset.z for f in wl.frames]

    a, b = inputs(1), inputs(2)
    assert all(np.array_equal(x, y) for x, y in zip(a, inputs(1)))
    assert not all(
        len(x) == len(y) and np.array_equal(x, y) for x, y in zip(a, b)
    )


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("session118", 1, 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_self_times_add_up_to_the_root():
    tr = Tracer()
    tr.active = True
    root = tr.start("op")
    a = tr.start("a")
    b = tr.start("b")
    time.sleep(0.002)
    tr.end(b)
    tr.end(a)
    c = tr.start("c")
    tr.end(c)
    tr.end(root)
    assert tr.nesting_error() < 1e-9
    tot = tr.totals()
    assert tot["a"][1] >= tot["b"][1] > 0.0015
    assert tot["a"][2] == pytest.approx(tot["a"][1] - tot["b"][1])


def test_cross_thread_spans_do_not_subtract_from_the_root():
    tr = Tracer()
    tr.active = True
    tr.root = tr.start("op")

    def site():
        sp = tr.start("site")
        time.sleep(0.003)
        tr.end(sp)

    t = threading.Thread(target=site)
    t.start()
    t.join(5)
    assert not t.is_alive()
    tr.end(tr.root)
    site_span = next(s for s in tr.spans if s.name == "site")
    assert site_span.parent is tr.root and tr.root.child == 0.0


def test_timing_executor_names_dse_phases():
    tr = Tracer()
    tr.active = True
    ex = TimingExecutor(tr)
    run = tr.start("dse.run")
    assert ex.map(lambda x: 2 * x, [1, 2]) == [2, 4]
    ex.map(lambda x: x, [1])
    ex.map(lambda x: x, [1])
    tr.end(run)
    assert [s.name for s in tr.spans] == [
        "dse.step1", "dse.step2", "dse.step2", "dse.run"
    ]


def test_latency_summary_counts_samples_beyond_the_tail():
    lat = np.arange(1, 101) / 1e3  # 1..100 ms
    s = latency_summary(lat, 90)
    assert s["p50_ms"] == pytest.approx(50.5)
    assert s["n"] == 100 and s["beyond_tail"] == 10


def test_open_loop_times_from_the_schedule():
    from concurrent.futures import Future

    def submit(delay):
        fut = Future()
        threading.Timer(delay, fut.set_result, args=(delay,)).start()
        return fut

    res = open_loop(submit, [0.01, 0.02], np.array([0.0, 0.005]))
    assert np.all(res.latencies >= np.array([0.01, 0.02]))
    assert np.all(res.lateness >= 0.0)
