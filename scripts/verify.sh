#!/usr/bin/env bash
# Repo verification: tier-1 test suite + quickstart smoke run.
#
#   scripts/verify.sh            # tier-1 + benchmark self-tests + smoke examples
#   scripts/verify.sh --fast     # quickstart smoke only
#
# Mirrors the tier-1 gate in ROADMAP.md; run it before every commit.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" != "--fast" ]]; then
    echo "== tier-1 test suite =="
    python -m pytest -x -q

    echo "== benchmark self-tests (every workload on IEEE-14, live == in-process) =="
    python3 -m pytest perfbench -q
fi

echo "== metric-name taxonomy lint =="
python scripts/check_metric_names.py

echo "== quickstart smoke =="
python examples/quickstart.py

echo "== scenario serving smoke (tiny batch) =="
python examples/serve_scenarios.py --tiny

echo "== middleware round-trip smoke (inproc + localhost TCP) =="
python examples/middleware_roundtrip.py

echo "== fabric throughput smoke (relay pipeline + mux hub, every message arrives) =="
python - <<'PY'
import sys
sys.path.insert(0, "benchmarks")
from bench_middleware_fastpath import measure_fabric_throughput
rec = measure_fabric_throughput(n_msgs=200)
for mode in ("legacy", "fast"):
    assert rec[f"{mode}_received"] == 200, (mode, rec)
    print(f"{mode:>6}: {rec[f'{mode}_msgs_per_s']:.0f} msgs/s")
PY

echo "== observability smoke (traces across workers + TCP mux hop) =="
python examples/observability_demo.py

echo "== chaos smoke (seeded fault plan, retries, degraded live run) =="
python examples/chaos_demo.py

echo "== batch sweep smoke (copy-on-write forks + SIMD batch solves) =="
python examples/batch_sweep.py

echo "== condensed DSE smoke (Schur-reduced Step-2 exchange and solve) =="
python examples/condensed_dse.py

echo "== sharded serving smoke (hash-ring router, drain, no loss) =="
python examples/serve_sharded.py --tiny

echo "== health plane smoke (watchdog, SLO burn, telemetry, blackbox) =="
python examples/health_demo.py

echo "== recovery smoke (site kill, lease expiry, epoch-fenced failover) =="
python examples/recovery_demo.py

echo "verify: OK"
