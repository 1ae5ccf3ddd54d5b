#!/usr/bin/env bash
# scenlaunch — local shard launcher for scenario-file grids.
#
# Splits a grid's global cell range into contiguous --cells A:B shards, runs
# one scenrun worker process per shard with at most N running at once, and
# scenmerges the shard dumps into the final CSV/JSON. The merge is
# byte-identical to an unsharded run (cells are pure functions of their
# spec, so how the grid was split can never show up in the bytes) —
# `scripts/check.sh --scen/--faults/--scale` asserts exactly that.
#
# Usage: scripts/scenlaunch.sh GRID.json --workers N [options]
#   --workers N      worker processes running at once
#   --csv FILE       merged CSV output
#   --json FILE      merged JSON output       (at least one of --csv/--json)
#   --shards N       shard count (default: one per worker; oversplit to
#                    balance uneven cells)
#   --store DIR      pass --store DIR to every worker
#   --no-cache       pass --no-cache to every worker
#   --threads N      threads per worker (scenrun --threads; default 1)
#   --build-dir DIR  directory holding scenrun/scenmerge (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n 's/^# \{0,1\}//p' "$0" | sed -n '2,20p'
}

GRID=""
WORKERS=0
CSV_OUT=""
JSON_OUT=""
SHARDS=0
STORE_ARGS=()
THREADS=1
BUILD_DIR="build"
while [[ $# -gt 0 ]]; do
  case "$1" in
    -h|--help) usage; exit 0 ;;
    --workers) WORKERS="$2"; shift 2 ;;
    --csv) CSV_OUT="$2"; shift 2 ;;
    --json) JSON_OUT="$2"; shift 2 ;;
    --shards) SHARDS="$2"; shift 2 ;;
    --store) STORE_ARGS+=(--store "$2"); shift 2 ;;
    --no-cache) STORE_ARGS+=(--no-cache); shift ;;
    --threads) THREADS="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    -*) echo "scenlaunch: unknown option: $1" >&2; usage >&2; exit 2 ;;
    *)
      [[ -z "$GRID" ]] || { echo "scenlaunch: more than one grid file" >&2; exit 2; }
      GRID="$1"; shift ;;
  esac
done

[[ -n "$GRID" ]] || { echo "scenlaunch: no grid file given" >&2; usage >&2; exit 2; }
[[ -n "$CSV_OUT" || -n "$JSON_OUT" ]] \
  || { echo "scenlaunch: need --csv and/or --json output" >&2; exit 2; }
[[ "$WORKERS" =~ ^[0-9]+$ && "$WORKERS" -ge 1 ]] \
  || { echo "scenlaunch: need --workers N (>= 1)" >&2; exit 2; }
SCENRUN="$BUILD_DIR/scenrun"
SCENMERGE="$BUILD_DIR/scenmerge"
[[ -x "$SCENRUN" && -x "$SCENMERGE" ]] \
  || { echo "scenlaunch: $SCENRUN / $SCENMERGE not built (cmake --build $BUILD_DIR)" >&2; exit 1; }

TOTAL="$("$SCENRUN" "$GRID" --count)"
(( SHARDS >= 1 )) || SHARDS=$WORKERS
(( SHARDS <= TOTAL )) || SHARDS=$TOTAL

TMP="$(mktemp -d)"
# On a failed launch, stop the workers still running before dropping TMP.
trap 'kill $(jobs -pr) 2>/dev/null || true; rm -rf "$TMP"' EXIT

# Contiguous near-even split: the first (TOTAL % SHARDS) shards get one
# extra cell, covering [0, TOTAL) exactly. At most WORKERS shards run at
# once; the first failure stops the launch.
lo=0
running=0
for (( sh = 0; sh < SHARDS; sh++ )); do
  size=$(( TOTAL / SHARDS + (sh < TOTAL % SHARDS ? 1 : 0) ))
  if (( running >= WORKERS )); then
    wait -n || { echo "scenlaunch: a worker failed (logs: see above)" >&2; exit 1; }
    running=$(( running - 1 ))
  fi
  "$SCENRUN" "$GRID" --cells "$lo:$(( lo + size ))" --threads "$THREADS" \
    ${STORE_ARGS[@]+"${STORE_ARGS[@]}"} \
    --csv "$TMP/out.$sh.csv" --json "$TMP/out.$sh.json" &
  running=$(( running + 1 ))
  lo=$(( lo + size ))
done
for (( ; running > 0; running-- )); do
  wait -n || { echo "scenlaunch: a worker failed (logs: see above)" >&2; exit 1; }
done

# --- Merge (shard order is irrelevant — scenmerge re-orders by cell index) ---
if [[ -n "$CSV_OUT" ]]; then
  CSVS=()
  for (( sh = 0; sh < SHARDS; sh++ )); do CSVS+=("$TMP/out.$sh.csv"); done
  "$SCENMERGE" -o "$CSV_OUT" "${CSVS[@]}"
fi
if [[ -n "$JSON_OUT" ]]; then
  JSONS=()
  for (( sh = 0; sh < SHARDS; sh++ )); do JSONS+=("$TMP/out.$sh.json"); done
  "$SCENMERGE" -o "$JSON_OUT" "${JSONS[@]}"
fi
echo "scenlaunch: $TOTAL cells, $SHARDS shard(s) across $WORKERS worker(s)" \
     "-> ${CSV_OUT:-}${CSV_OUT:+ }${JSON_OUT:-}"
