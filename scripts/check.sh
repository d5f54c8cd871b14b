#!/usr/bin/env bash
# Model-checking sweep: builds the `check` CLI and explores the default
# targets — Ben-Or and Phase-King as compositions (benor-vac+local-coin,
# phaseking-ac+king-conciliator) plus Raft — with every applicable strategy
# (random walks, delay-bounded reordering, crash-schedule enumeration,
# round skew, and — for raft — crash-restart schedules against durable
# storage). Exits nonzero if any invariant violation is
# found; counterexamples (config + trace) land in ./counterexamples/.
#
#   scripts/check.sh               # default 10k-seed sweep per target
#   SEEDS=100000 scripts/check.sh  # bigger sweep
#   EXTRA="--family compose" scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${SEEDS:-10000}"
EXTRA="${EXTRA:-}"

cmake -B build -S . >/dev/null
cmake --build build --target check -j >/dev/null

# shellcheck disable=SC2086  # EXTRA is intentionally word-split
exec build/tools/check --seeds "$SEEDS" --trace-dir counterexamples $EXTRA
