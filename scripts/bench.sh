#!/usr/bin/env bash
# Perf trajectory runner: builds bench_micro in Release and runs the tracked
# hot-path benchmarks (broadcast fan-out, event-queue churn, counters,
# SHA-256/HMAC/sign/verify, hardware and logical clock reads, and the
# BM_Sweep_Grid8 end-to-end sweep) 5 times each, appending the result as one
# labelled point to BENCH_core.json: per benchmark, the median time and its
# min..max over the repetitions.
#
# Usage: scripts/bench.sh [--smoke] [--scale] [--label NAME] [build-dir]
#   --smoke   1-iteration run to a temp file (CI bit-rot guard; does NOT
#             touch BENCH_core.json); with --scale, one repeat of the
#             sparse_fabric grid only
#   --scale   instead of bench_micro, run every cell of the scale grids in
#             examples/scenarios/scale/ (sparse_fabric, full_fanout,
#             thread_curve, frontier) as 3 fresh scenrun children each, and
#             append the rows as a labelled point to BENCH_core.json; exits
#             non-zero, naming the cell, on a wall or RSS budget breach
#   --label   label recorded with the run (default: git describe)
#   build-dir defaults to build-bench
#
#        scripts/bench.sh --ab REV_A REV_B --workload W|all [--pairs N] [--seed S]
#   --ab      paired A/B comparison of two committed revisions on one
#             bench_suite workload, or on every workload BENCHMARK.json
#             lists (--workload all, one after another, same builds). Each
#             revision is exported with `git archive` into a temporary
#             directory and its bench_suite built there in Release; then N
#             pairs (default 10) of fresh `bench_suite --workload W --trace 0
#             --seconds T --seed S` children run alternately, A B B A A B ...,
#             so host drift hits both sides alike (S defaults to 1; rerun a
#             claim on another seed to check it was not tuned to one)
#             (T is BENCHMARK.json's run_seconds, the benchmark's own run
#             length; each child reports the median of its own >= 3 repeats).
#             Prints each pair's four end-to-end metrics (wall_s,
#             events_per_s, peak_rss_mb, setup_s) with their B/A ratios, then
#             per metric the median ratio with a 95% bootstrap interval over
#             the pairs, both sides' medians and A's interquartile range,
#             and at the end one summary row per workload; the last line is
#             the same summary as JSON. Exits 1 when a child fails or the two
#             revisions' result digests differ.
#             Touches neither the checkout nor BENCH_core.json.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
SCALE=0
LABEL=""
BUILD_DIR="build-bench"
AB_A=""
AB_B=""
AB_WORKLOAD=""
AB_PAIRS=10
AB_SEED=1
usage() {
  echo "usage: scripts/bench.sh [--smoke] [--scale] [--label NAME] [build-dir]"
  echo "       scripts/bench.sh --ab REV_A REV_B --workload W|all [--pairs N] [--seed S]"
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --scale) SCALE=1; shift ;;
    --label)
      [[ $# -ge 2 ]] || { echo "bench.sh: --label needs a value (see --help)" >&2; exit 2; }
      LABEL="$2"; shift 2 ;;
    --ab)
      [[ $# -ge 3 ]] || { echo "bench.sh: --ab needs two revisions (see --help)" >&2; exit 2; }
      AB_A="$2"; AB_B="$3"; shift 3 ;;
    --workload|--pairs|--seed)
      [[ $# -ge 2 ]] || { echo "bench.sh: $1 needs a value (see --help)" >&2; exit 2; }
      case "$1" in
        --workload) AB_WORKLOAD="$2" ;;
        --pairs) AB_PAIRS="$2" ;;
        --seed) AB_SEED="$2" ;;
      esac
      shift 2 ;;
    -h|--help) usage; exit 0 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done
[[ -n "$LABEL" ]] || LABEL="$(git describe --always --dirty 2>/dev/null || echo unlabelled)"

if [[ -n "$AB_A" ]]; then
  [[ -n "$AB_WORKLOAD" ]] || { echo "bench.sh: --ab needs --workload W or all" >&2; exit 2; }
  [[ "$SCALE" -eq 0 && "$SMOKE" -eq 0 ]] \
    || { echo "bench.sh: --ab does not combine with --scale or --smoke" >&2; exit 2; }
  [[ "$AB_PAIRS" =~ ^[1-9][0-9]*$ ]] \
    || { echo "bench.sh: --pairs must be a positive integer" >&2; exit 2; }
  [[ "$AB_SEED" =~ ^[0-9]+$ ]] \
    || { echo "bench.sh: --seed must be a non-negative integer" >&2; exit 2; }
  AB_SECONDS="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
  SHA_A="$(git rev-parse --verify "$AB_A^{commit}")"
  SHA_B="$(git rev-parse --verify "$AB_B^{commit}")"
  WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
  trap 'rm -rf "$WORK"' EXIT
  for side in a b; do
    sha="$SHA_A"; [[ "$side" == b ]] && sha="$SHA_B"
    mkdir -p "$WORK/$side/tmp"
    git archive "$sha" | tar -x -C "$WORK/$side"
    # The compiler's temporaries stay inside the export, as in run.sh.
    TMPDIR="$WORK/$side/tmp" cmake -S "$WORK/$side/bench_suite" -B "$WORK/$side/.bench_build" \
      -DCMAKE_BUILD_TYPE=Release >&2
    TMPDIR="$WORK/$side/tmp" cmake --build "$WORK/$side/.bench_build" -j 4 \
      --target bench_suite >&2
  done
  A_BIN="$WORK/a/.bench_build/bench_suite" B_BIN="$WORK/b/.bench_build/bench_suite" \
  A_NAME="$AB_A@${SHA_A:0:12}" B_NAME="$AB_B@${SHA_B:0:12}" WORKLOAD="$AB_WORKLOAD" \
  PAIRS="$AB_PAIRS" SEED="$AB_SEED" SECONDS_PER_RUN="$AB_SECONDS" python3 - <<'EOF'
import json, os, random, statistics, subprocess, sys

env = os.environ
pairs, seed, seconds = int(env["PAIRS"]), env["SEED"], env["SECONDS_PER_RUN"]
workloads = [env["WORKLOAD"]]
if workloads == ["all"]:
    workloads = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
# Every end-to-end metric of BENCHMARK.json; only events_per_s is better
# higher.
metrics = ("wall_s", "events_per_s", "peak_rss_mb", "setup_s")
higher_better = {"events_per_s"}


def run(binary, workload):
    """One fresh bench_suite child: its end-to-end metrics and result digests."""
    out = subprocess.run([binary, "--workload", workload, "--seed", seed, "--seconds", seconds,
                          "--trace", "0"], capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench.sh: {binary} exited {out.returncode}:\n{out.stderr}")
    verdict = json.loads(lines[-1])  # the verdict is the last stdout line
    if not verdict["correct"]:
        sys.exit(f"bench.sh: {binary} reported an incorrect run:\n{lines[-1]}")
    digests = {l.split()[-1] for l in out.stderr.splitlines() if " digest " in l}
    return {m: verdict["metrics"][m]["value"] for m in metrics}, digests


def interval(ratios, draws=10000):
    """Median ratio and its 95% bootstrap interval over the pairs."""
    rng = random.Random(1)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(draws))
    return statistics.median(ratios), medians[int(0.025 * draws)], medians[int(0.975 * draws)]


def compare(workload):
    """`pairs` alternating pairs on one workload: its summary dict."""
    print(f"bench.sh: A = {env['A_NAME']}, B = {env['B_NAME']}, workload {workload}, "
          f"{pairs} pairs of fresh children, --seconds {seconds} --seed {seed}", flush=True)
    values = {"A": {m: [] for m in metrics}, "B": {m: [] for m in metrics}}
    ratios = {m: [] for m in metrics}
    digests = {"A": set(), "B": set()}
    for p in range(1, pairs + 1):
        # Which side runs first alternates too, so neither always gets a
        # freshly idle host.
        if p % 2:
            a, da = run(env["A_BIN"], workload)
            b, db = run(env["B_BIN"], workload)
        else:
            b, db = run(env["B_BIN"], workload)
            a, da = run(env["A_BIN"], workload)
        digests["A"] |= da
        digests["B"] |= db
        for m in metrics:
            values["A"][m].append(a[m])
            values["B"][m].append(b[m])
            ratios[m].append(b[m] / a[m])
        print(f"pair {p}: " + "; ".join(f"{m} A {a[m]:.4g} B {b[m]:.4g} B/A "
                                         f"{ratios[m][-1]:.3f}" for m in metrics), flush=True)

    summary = {"pairs": pairs}
    for m in metrics:
        med, lo, hi = interval(ratios[m])
        better = sum(r > 1 if m in higher_better else r < 1 for r in ratios[m])
        a_med, b_med = (statistics.median(values[side][m]) for side in "AB")
        q1, _, q3 = statistics.quantiles(values["A"][m], n=4) if pairs > 1 else (0, 0, 0)
        print(f"{m} B/A: median {med:.3f}, 95% bootstrap interval [{lo:.3f}, {hi:.3f}]; "
              f"B better in {better} of {pairs} pairs; median A {a_med:.4g} B {b_med:.4g}, "
              f"A interquartile range {q3 - q1:.3g}")
        summary[m] = {"ratios": [round(r, 4) for r in ratios[m]], "median": round(med, 4),
                      "ci95": [round(lo, 4), round(hi, 4)], "b_better": better,
                      "a_median": a_med, "b_median": b_med, "a_iqr": q3 - q1}
    summary["digests"] = {k: sorted(v) for k, v in digests.items()}
    if digests["A"] != digests["B"]:
        sys.exit(f"bench.sh: {workload}: result digests differ: A {sorted(digests['A'])}, "
                 f"B {sorted(digests['B'])}")
    return summary


results = {w: compare(w) for w in workloads}
# One summary row per workload.
for w, r in results.items():
    print(f"summary {w}: " + "; ".join(
        f"{m} B/A {r[m]['median']:.3f} [{r[m]['ci95'][0]:.3f}, {r[m]['ci95'][1]:.3f}] "
        f"B better {r[m]['b_better']}/{pairs}" for m in metrics))
print(json.dumps({"a": env["A_NAME"], "b": env["B_NAME"], "seed": int(seed),
                  "workloads": results}))
EOF
  exit 0
fi

if [[ "$SCALE" -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j --target scenrun

  # Every cell of the four scale grids (examples/scenarios/scale/), each
  # repeat in a fresh scenrun child so no run inherits another's heap:
  #  - sparse_fabric: auth on expander(16), sampled(8) at n = 10^3, 4096 and
  #    10^5 (the acceptance cell), 120 s per cell;
  #  - full_fanout: the same auth cell on the complete graph, full fan-out,
  #    n = 10^3 — Theta(n^2) messages per round, the far side of the
  #    message-complexity cliff;
  #  - thread_curve: n = 10^6 on expander(8), sampled(8), delay=half at
  #    sim_threads 1/2/4/8 — only meaningful on multicore hardware, so read
  #    host.num_cpus before judging it;
  #  - frontier: n = 10^7, horizon 1, 1200 s and 65,536 MB peak RSS.
  # wall_s times the whole child, grid load and validation included;
  # peak_rss_mb is the child's maxrss (scenrun's floor is ~18 MB).
  LABEL="$LABEL" BUILD_DIR="$BUILD_DIR" SMOKE="$SMOKE" python3 - <<'EOF'
import datetime, hashlib, json, os, re, statistics, subprocess, sys, tempfile, time

build = os.environ["BUILD_DIR"]
smoke = os.environ["SMOKE"] == "1"
cache = open(os.path.join(build, "CMakeCache.txt")).read()
if not re.search(r"^CMAKE_BUILD_TYPE:\w+=Release$", cache, re.M):
    sys.exit(f"bench.sh: {build} is not a Release build; refusing to time it")
scenrun = os.path.join(build, "scenrun")
GRIDS = [  # (grid, wall budget s, peak-RSS budget MB); None = unenforced
    ("sparse_fabric_grid.json", 120, None),
    ("full_fanout_grid.json", None, None),
    ("thread_curve_grid.json", None, None),
    ("frontier_grid.json", 1200, 65536),
]
REPEATS = 3
if smoke:
    GRIDS, REPEATS = GRIDS[:1], 1


def run_child(grid, cell, out):
    """One fresh scenrun child: (wall s, peak RSS MB, stderr)."""
    begin = time.perf_counter()
    child = subprocess.Popen([scenrun, grid, "--cells", f"{cell}:{cell + 1}", "--json", out],
                             stderr=subprocess.PIPE, text=True)
    err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - begin
    child.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it, not Popen
    if child.returncode != 0:
        sys.exit(f"bench.sh: {grid} cell {cell} exited {child.returncode}:\n{err}")
    return wall, usage.ru_maxrss / 1024, err  # Linux reports KB


rows, breaches = [], []
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "cell.json")
    for grid_name, wall_budget, rss_budget in GRIDS:
        grid = os.path.join("examples/scenarios/scale", grid_name)
        count = int(subprocess.check_output([scenrun, grid, "--count"], text=True))
        for cell in range(count):
            walls, rss, digests, engines = [], [], set(), set()
            for _ in range(REPEATS):
                wall, peak, err = run_child(grid, cell, out)
                (record,) = json.load(open(out))
                result = record["result"]
                walls.append(wall)
                rss.append(peak)
                digests.add(hashlib.sha256(
                    json.dumps(result, sort_keys=True).encode()).hexdigest()[:16])
                threads = int(record["labels"].get("sim_threads", 1))
                engines.add("fallback" if "falling back to the sequential engine" in err
                            else "parallel" if threads > 1 else "sequential")
            name = "/".join([f"scenrun/{grid_name.removesuffix('_grid.json')}"] +
                            [f"{k}={v}" for k, v in record["labels"].items()])
            if len(digests) != 1 or len(engines) != 1:
                sys.exit(f"bench.sh: {name}: repeats disagree "
                         f"(digests {sorted(digests)}, engines {sorted(engines)})")
            spec = record["spec"]
            rounds = result["max_pulses"] or int(spec["horizon"] / spec["period"])
            row = {
                "name": name, "n": spec["n"], "repeats": REPEATS,
                "wall_s_median": round(statistics.median(walls), 3),
                "wall_s_min": round(min(walls), 3),
                "peak_rss_mb": round(max(rss), 1),
                "events": result["events_dispatched"],
                "messages": result["messages_sent"],
                "msgs_per_round": round(result["messages_sent"] / max(rounds, 1), 1),
                "max_skew": result["max_skew"], "local_skew": result["local_skew"],
                "engine": engines.pop(), "digest": digests.pop(),
            }
            rows.append(row)
            print(json.dumps(row), flush=True)
            if wall_budget is not None and max(walls) > wall_budget:
                breaches.append(f"{name} took {max(walls):.1f} s (budget {wall_budget} s)")
            if rss_budget is not None and max(rss) > rss_budget:
                breaches.append(f"{name} peaked at {max(rss):.0f} MB RSS "
                                f"(budget {rss_budget} MB)")

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    point = {
        "label": os.environ["LABEL"] + "/scale",
        "date": datetime.datetime.now().isoformat(),
        "commit": commit or "unknown",
        "build_type": "Release",
        "host": {"num_cpus": len(os.sched_getaffinity(0))},
        "method": f"{REPEATS} fresh scenrun children per cell; wall_s covers the whole "
                  "child, grid load and validation included; peak_rss_mb is the "
                  "child's maxrss from wait4",
        "benchmarks": rows,
    }
    path = os.path.join(tmp, "point.json") if smoke else "BENCH_core.json"
    doc = {"tracks": "scripts/bench.sh hot-path trajectory", "history": []}
    if os.path.exists(path):
        doc = json.load(open(path))
    doc["history"].append(point)
    json.dump(doc, open(path, "w"), indent=1)
    open(path, "a").write("\n")

for breach in breaches:
    print(f"bench.sh: budget breach: {breach}", file=sys.stderr)
if smoke and not breaches:
    print("bench.sh: scale smoke OK (BENCH_core.json unchanged)")
elif not smoke:
    print(f"bench.sh: appended scale run '{point['label']}' to {path} "
          f"({len(doc['history'])} point(s) in trajectory)")
sys.exit(1 if breaches else 0)
EOF
  exit 0
fi

FILTER='BM_Broadcast_N64|BM_Broadcast_N256|BM_Broadcast_N4096|BM_Broadcast_N65536|BM_TopoSwitch_Epochs|BM_EventQueue_Churn|BM_Counters|BM_Sweep_Grid8|BM_CellFingerprint|BM_StoreLookup|BM_Sha256_64B|BM_HmacSha256|BM_SignRoundMessage|BM_VerifyRoundMessage|BM_HardwareClockRead|BM_LogicalClockRead'
# Each tracked benchmark runs this many times; a BENCH_core.json row
# records the median and the min..max spread over them, because a single
# run of one binary can swing by more than the changes it is used to judge.
REPETITIONS=5

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_micro
if [[ ! -x "$BUILD_DIR/bench_micro" ]]; then
  echo "bench.sh: bench_micro not built (google-benchmark not found)" >&2
  exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

EXTRA=(--benchmark_repetitions="$REPETITIONS")
if [[ "$SMOKE" -eq 1 ]]; then
  # Near-zero min_time and one repetition: each benchmark runs a handful of
  # iterations, just enough to prove the binaries still build and execute.
  # (The "1x" iteration syntax needs google-benchmark >= 1.8, which the
  # image lacks.)
  EXTRA=(--benchmark_min_time=0.001)
fi

"$BUILD_DIR/bench_micro" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$RAW" \
  --benchmark_out_format=json \
  "${EXTRA[@]}"

if [[ "$SMOKE" -eq 1 ]]; then
  echo "bench.sh: smoke run OK (BENCH_core.json unchanged)"
  exit 0
fi

# Append this run to the perf trajectory. Requires python3 (baked into the
# dev image); the raw google-benchmark JSON is preserved verbatim per run.
LABEL="$LABEL" RAW="$RAW" python3 - <<'EOF'
import json, os, statistics

raw = json.load(open(os.environ["RAW"]))
# One row per benchmark from its repetitions (google-benchmark's own
# aggregates are skipped): the median of each time, and its min..max.
runs = {}
for b in raw["benchmarks"]:
    if b.get("run_type", "iteration") == "iteration":
        runs.setdefault(b.get("run_name", b["name"]), []).append(b)
rows = []
for name, reps in runs.items():
    row = {"name": name, "repetitions": len(reps), "iterations": reps[0]["iterations"],
           "time_unit": reps[0]["time_unit"]}
    for k in ("real_time", "cpu_time", "items_per_second"):
        if k in reps[0]:
            values = [r[k] for r in reps]
            row[k] = statistics.median(values)
            row[k + "_min"], row[k + "_max"] = min(values), max(values)
    rows.append(row)
point = {
    "label": os.environ["LABEL"],
    "date": raw["context"]["date"],
    "host": {k: raw["context"].get(k) for k in ("num_cpus", "mhz_per_cpu", "library_build_type")},
    "method": "real_time, cpu_time and items_per_second are medians over the row's "
              "repetitions; *_min and *_max are their spread",
    "benchmarks": rows,
}

path = "BENCH_core.json"
doc = {"tracks": "scripts/bench.sh hot-path trajectory", "history": []}
if os.path.exists(path):
    doc = json.load(open(path))
doc["history"].append(point)
json.dump(doc, open(path, "w"), indent=1)
open(path, "a").write("\n")
print(f"bench.sh: appended run '{point['label']}' to {path} "
      f"({len(doc['history'])} point(s) in trajectory)")
EOF
