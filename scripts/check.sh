#!/usr/bin/env bash
# Lint + tier-1 test gate. Run from the repository root:
#
#     ./scripts/check.sh
#
# ruff is optional (config lives in pyproject.toml); the tests are not.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests
else
    echo "== ruff == (not installed; skipping lint)"
fi

echo "== legacy API lint =="
# The v3 API redesign removed the deprecated ArchIS config aliases
# (profile=/umin=/... on ArchIS(), buffer_pages=/durability= on
# ArchIS.open()) and the bare-list Result shim.  Fail if anything in
# the tree reaches for them again.  (Database.open keeps its own
# buffer_pages/durability parameters — the lint anchors on ArchIS.)
LEGACY="$(grep -rnE \
    'ArchIS(\.open)?\([^()]*\b(profile|umin|min_segment_rows|translation_cache_size|buffer_pages|durability)=' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$LEGACY" ]; then
    echo "FAIL: legacy ArchIS config aliases are gone; pass config=ArchISConfig(...):" >&2
    echo "$LEGACY" >&2
    exit 1
fi
SHIM="$(grep -rnE '_WARNED_ALIASES|reset_alias_warnings|from repro\.archis\.config import .*_UNSET' \
    --include='*.py' src tests examples scripts benchmarks || true)"
if [ -n "$SHIM" ]; then
    echo "FAIL: the deprecated-alias shim machinery was removed:" >&2
    echo "$SHIM" >&2
    exit 1
fi
echo "no references to removed legacy API surface"

echo "== metric inventory lint =="
# Every metric emitted under src/ must be documented in
# repro.obs.METRIC_INVENTORY (its # HELP text in the exposition).
python scripts/lint_metrics.py

echo "== pytest (tier 1) =="
PYTHONPATH=src python -m pytest -x -q

echo "== pytest (golden plan snapshots) =="
# The rendered plans are pinned output: a diff here means the optimizer
# or the plan renderer changed observable behavior.
PYTHONPATH=src python -m pytest -x -q tests/plan/test_golden_plans.py

echo "== pytest (crash-injection durability suite) =="
# Run the crash matrix in a dedicated temp root so we can prove that no
# recovery path leaves stray .tmp files or unreplayed WAL frames behind.
CRASH_TMP="$(mktemp -d)"
trap 'rm -rf "$CRASH_TMP"' EXIT
PYTHONPATH=src python -m pytest -x -q \
    --basetemp="$CRASH_TMP" \
    tests/storage/test_wal_recovery.py \
    tests/archis/test_crash_persistence.py

STRAY_TMP="$(find "$CRASH_TMP" -name '*.tmp' 2>/dev/null || true)"
if [ -n "$STRAY_TMP" ]; then
    echo "FAIL: recovery tests left stray .tmp files behind:" >&2
    echo "$STRAY_TMP" >&2
    exit 1
fi
# (*.db.wal = pager-managed logs; bare *.wal fixtures from the frame-codec
# unit tests are expected to keep their frames)
STRAY_WAL="$(find "$CRASH_TMP" -name '*.db.wal' -size +0c 2>/dev/null || true)"
if [ -n "$STRAY_WAL" ]; then
    echo "FAIL: recovery tests left non-empty WAL files behind:" >&2
    echo "$STRAY_WAL" >&2
    exit 1
fi
echo "no stray .tmp or WAL files left behind"

echo "== batched-ingest smoke benchmark =="
# Fails if batch apply is slower than row-at-a-time or produces
# different archive state.  Writes to a scratch path so the committed
# full-run BENCH_ingest.json is never clobbered by smoke numbers.
PYTHONPATH=src timeout 300 python benchmarks/bench_ingest.py --smoke \
    --out "$(mktemp --suffix=.json)"

echo "== Fig. 10 scalability benchmark =="
# The paper's Fig. 10: on 7x data most query times grow ~linearly and
# the single-object queries (Q1/Q3) grow much less.
PYTHONPATH=src timeout 300 python -m pytest -x -q \
    benchmarks/bench_fig10_scalability.py

echo "== temporal SQL smoke benchmark =="
# FOR SYSTEM_TIME AS OF must answer exactly like snapshot_rows, the
# sequenced operators exactly like their XQuery equivalents, and the AS
# OF EXPLAIN must show segment-restriction firing.  Performance ratios
# only gate the full run.
PYTHONPATH=src timeout 300 python benchmarks/bench_temporal_sql.py \
    --smoke --out "$(mktemp --suffix=.json)"

echo "== server jobs + binary encoding smoke benchmark =="
# Protocol v3 end to end: the colframe1 size gate and async job
# isolation (interactive p99 stays bounded while a job occupies the
# job executor).  The encoding speed gate only applies to the full
# run; smoke writes to a scratch path so the committed full-run
# BENCH_server_jobs.json is never clobbered.
PYTHONPATH=src timeout 300 python benchmarks/bench_server_jobs.py \
    --smoke --out "$(mktemp --suffix=.json)"

echo "== benchmark self-test =="
# The archisbench checks: its interval model against a hand-worked
# history, every workload at the tiny size (same seed => same inputs,
# every declared metric printed), and a refusal to report from a
# checkout without the engine's sources.
timeout 300 python3 archisbench/selftest.py

echo "== concurrency stress (bounded) =="
# Snapshot-vs-replay consistency under concurrent clients, deadlock
# breaking, group-commit batching — fails on leaked threads or sockets.
PYTHONPATH=src timeout 120 python scripts/stress_concurrency.py --seconds 3
