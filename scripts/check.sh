#!/usr/bin/env bash
# One-command local gate: style, invariants, tier-1 tests, perf smoke.
#
#   ./scripts/check.sh            # the full chain, incl. benchmarks/perf
#   ./scripts/check.sh --fast     # same gate minus benchmarks/perf
#
# Mirrors what CI runs.  The lanes below point scripts/bench.py at
# throwaway ledgers; only a hand run or CI's trajectory step appends to
# the committed run ledger (results/ledger/bench.jsonl).  The
# table/figure benchmarks stay separate.  The perf lane runs at
# REPRO_SCALE=tiny unless the caller exports a scale.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== ruff (style) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src scripts tests benchmarks examples
else
    echo "ruff not installed; skipping style pass"
fi

echo "== repro-lint (invariants) =="
# SARIF lands in results/lint.sarif (gitignored) for CI annotation
# upload; --max-seconds is the wall-clock budget the lint layer must
# keep fitting as the tree and the rule catalog grow.
mkdir -p results
PYTHONPATH=src python -m repro.devtools.lint \
    src/repro scripts examples benchmarks \
    --format sarif --output results/lint.sarif \
    --max-seconds 10

echo "== tier-1 pytest =="
PYTHONPATH=src python -m pytest -x -q

echo "== tier-1 smoke subset under REPRO_WORKERS=2 =="
# The parallel layer must not change any result: rerun the suites
# covering the pool-backed hot paths, the committed golden digests
# (trees, worlds under the sharded engine, and the scoring path with
# a pooled forest fit), and the chaos harness (whose
# capture-reconciliation invariants must hold under a pool too) with
# a 2-worker default.
REPRO_WORKERS=2 PYTHONPATH=src python -m pytest -q \
    tests/parallel tests/ml tests/labeling tests/chaos tests/golden

echo "== sniffbench self-tests =="
# The benchmark's own tests live outside testpaths = ["tests"]: on a
# micro world they check that per-layer counts reconcile, that tracing
# changes no output, and that a failed output check fails the run.
PYTHONPATH=src python -m pytest -q sniffbench/tests

echo "== health smoke (alert wiring) =="
# The SLO watchdog end to end: a deterministic faulted mini-run must
# fire at least one alert of the injected kind, and the same run with
# an empty fault plan must fire none.
PYTHONPATH=src:tests python - <<'EOF'
import repro.obs as obs
from repro.faults import FaultKind, FaultPlan, ScheduledFault
from repro.obs.health import HealthEngine

from chaos.strategies import run_faulted_network

plan = FaultPlan(
    faults=(
        ScheduledFault(hour=3, kind=FaultKind.STREAM_DISCONNECT),
        ScheduledFault(hour=4, kind=FaultKind.REST_TIMEOUT, count=2),
    )
)
obs.reset()
obs.set_enabled(True)
with HealthEngine() as faulted:
    run_faulted_network(seed=7, plan=plan, hours=4)
fired = {i.rule for i in faulted.incidents.incidents}
assert faulted.alerts_fired >= 1, "faulted mini-run fired no alerts"
assert "faults.stream_disconnect" in fired, f"missing kind alert: {fired}"

obs.reset()
with HealthEngine() as clean:
    run_faulted_network(seed=7, plan=FaultPlan(), hours=4)
assert clean.alerts_fired == 0, (
    f"clean mini-run fired {clean.alerts_fired} alert(s): "
    f"{[i.rule for i in clean.incidents.incidents]}"
)
print(
    f"health smoke OK ({faulted.alerts_fired} alert(s) under faults, "
    "0 clean)"
)
EOF

echo "== service soak (always-on sniffer under faults) =="
# The chaos soak, lane-sized: random fault plans against the always-on
# service, each run audited against the firehose ground truth
#
#     scored + dropped + lost + in_flight == ground truth
#
# with every executed fault kind surfaced as its health alert, and the
# cyclic collector handed back unfrozen (run_network freezes the world
# for each served hour).  Full mode sweeps 2 plans per seed; --fast
# runs a 1-plan smoke.  The soak
# log lands in results/service_soak.jsonl (gitignored; CI uploads it
# as an artifact next to the run logs).
SOAK_PLANS=2
[[ "$fast" == "1" ]] && SOAK_PLANS=1
SOAK_PLANS="$SOAK_PLANS" PYTHONPATH=src python - <<'EOF'
import gc
import json
import os
from pathlib import Path

from repro.faults import FaultPlan
from repro.service.soak import run_service_soak

plans = int(os.environ["SOAK_PLANS"])
log_path = Path("results/service_soak.jsonl")
outcomes = []
for seed in (7, 23):
    for variant in range(plans):
        plan = FaultPlan.random_plan(
            seed * 1000 + variant, start_hour=2, n_hours=5, intensity=1.5
        )
        outcome = run_service_soak(seed, plan, hours=5)
        outcomes.append(outcome)
        frozen = gc.get_freeze_count()
        assert frozen == 0, (
            f"soak seed {seed} plan {variant} left {frozen} objects "
            "frozen out of the cyclic collector"
        )
        assert outcome.reconciled, (
            f"soak seed {seed} plan {variant} does not reconcile: "
            f"{outcome.to_dict()}"
        )
        fired = set(outcome.alerts_fired)
        for kind in outcome.injected_kinds:
            assert f"faults.{kind}" in fired, (
                f"soak seed {seed}: injected {kind} without an alert"
            )
with log_path.open("w", encoding="utf-8") as fh:
    for outcome in outcomes:
        fh.write(json.dumps(outcome.to_dict(), sort_keys=True) + "\n")
total = sum(o.scored for o in outcomes)
print(
    f"service soak OK ({len(outcomes)} runs reconciled, "
    f"{total} tweets scored) -> {log_path}"
)
EOF

echo "== scale smoke (10k-account two-shard world) =="
# The columnar data plane and the sharded hour loop at a size big
# enough to exercise the array paths yet seconds-fast: build a
# 10k-account world with two engine shards (one shard never fans
# out), run two hours, and assert the engine actually emitted — also
# at workers=2, which must not change a byte.  After the run, which
# respawns suspended campaign members, every column still holds one
# row per account and ``order``/``index_of`` still map rows to ids.
PYTHONPATH=src python - <<'EOF'
import json

from repro.obs import reset, set_enabled
from repro.twittersim import SimulationConfig, TwitterEngine, build_population
from repro.twittersim.columnar import (
    ACCOUNT_NUMERIC_COLUMNS,
    ACCOUNT_STRING_COLUMNS,
)


def check_rows(population) -> None:
    order = population.order
    names = [name for name, __, __ in ACCOUNT_NUMERIC_COLUMNS]
    for name in names + list(ACCOUNT_STRING_COLUMNS):
        rows = len(population.cols.column(name))
        assert rows == len(order), f"{name}: {rows} rows, {len(order)} ids"
    assert population.cols.column("user_id").tolist() == order
    index_of = population.index_of
    assert len(index_of) == len(order)
    assert all(order[index_of[uid]] == uid for uid in index_of)


def run(workers: int) -> list[str]:
    reset()
    set_enabled(True)
    population = build_population(
        SimulationConfig(seed=5, n_normal_users=10_000, engine_shards=2)
    )
    engine = TwitterEngine(population, workers=workers)
    firehose = []
    engine.subscribe(firehose.append)
    engine.run_hours(2)
    check_rows(population)
    reset()
    return [json.dumps(t.to_json(), sort_keys=True) for t in firehose]


sequential = run(0)
assert len(sequential) > 500, f"only {len(sequential)} tweets at 10k"
assert run(2) == sequential, "workers=2 changed the sharded stream"
print(f"scale smoke OK ({len(sequential)} tweets, workers 0 == 2)")
EOF

if [[ "$fast" == "0" ]]; then
    echo "== perf smoke (benchmarks/perf) =="
    REPRO_SCALE="${REPRO_SCALE:-tiny}" PYTHONPATH=src \
        python -m pytest -q benchmarks/perf

    echo "== ledger + dashboard smoke =="
    # Two seeded micro runs into a throwaway ledger, then assert the
    # trajectory accumulated with full records (counters and config
    # digest), the median gate runs, and the dashboard renders fully
    # offline with counter sparklines.  The second run gates at a
    # generous threshold so wall-clock noise cannot fail the lane.
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    PYTHONPATH=src python scripts/bench.py --scale micro \
        --runid smokeA --ledger "$smoke_dir/bench.jsonl" \
        --no-gate >/dev/null
    PYTHONPATH=src python scripts/bench.py --scale micro \
        --runid smokeB --ledger "$smoke_dir/bench.jsonl" \
        --threshold 5.0 >/dev/null
    SMOKE_DIR="$smoke_dir" PYTHONPATH=src python - <<'EOF'
import os
from pathlib import Path

from repro.obs import RunLedger, diff_trajectory, save_dashboard

smoke_dir = Path(os.environ["SMOKE_DIR"])
ledger = RunLedger(smoke_dir / "bench.jsonl")
records = ledger.trajectory(kind="bench")
assert len(records) == 2, f"trajectory length {len(records)} != 2"
for record in records:
    assert record.metrics, f"{record.runid} carries no counters"
    assert record.meta.get("config_digest"), (
        f"{record.runid} carries no config digest"
    )
diff = diff_trajectory(records[:-1], records[-1], threshold=5.0)
assert diff.ok, f"trajectory gate tripped: {diff.render()}"
out = save_dashboard(smoke_dir / "dashboard.html", records)
html = out.read_text(encoding="utf-8")
assert "http" not in html, "dashboard references external resources"
assert "smokeB" in html, "dashboard missing latest run"
assert '<td class="name">metrics.' in html, "no counter series charted"
print(f"ledger+dashboard smoke OK ({len(html)} bytes of HTML)")
EOF
fi

echo "== all checks passed =="
