#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "experiment/engine_info.h"
#include "experiment/sinks.h"
#include "experiment/sweep.h"
#include "resultstore/incremental.h"
#include "resultstore/store.h"
#include "scenfile/scenfile.h"

/// scenrun — run a scenario-file grid without recompiling.
///
///   scenrun grid.json [--threads N] [--cells A:B] [--csv FILE] [--json FILE]
///           [--store DIR] [--no-cache] [--count] [--list] [--version]
///
/// The grid is loaded and fully validated, materialized into cells, executed
/// on a worker pool, and dumped through the standard sinks. `--cells A:B`
/// runs only the half-open global index range — the process-level sharding
/// hook: shard a grid across machines, then reassemble the dumps with
/// scenmerge (byte-identical to the unsharded run). FILE may be "-" for
/// stdout.
///
/// `--store DIR` turns every cell into a lookup-then-compute against the
/// content-addressed result store: hits skip the scenario engine entirely,
/// misses run and are published back, and a `hits=X misses=Y` summary goes
/// to stderr (never into a sink stream). `--no-cache` forces recompute of
/// every cell while still refreshing the store. Because results are pure
/// functions of (spec, seed, engine fingerprint), cached and fresh output
/// bytes are identical — a warm re-run is a pure cache replay.
namespace {

int usage(std::ostream& os, int code) {
  os << "usage: scenrun GRID.json [--threads N] [--cells A:B] [--csv FILE] "
        "[--json FILE]\n"
        "               [--store DIR] [--no-cache] [--count] [--list] [--version]\n"
        "  --threads N   worker threads (0 = all cores; default 1)\n"
        "  --cells A:B   run only global cell indices [A, B) of the grid\n"
        "  --csv FILE    write the CSV sink to FILE (\"-\" = stdout)\n"
        "  --json FILE   write the JSON sink to FILE (\"-\" = stdout)\n"
        "  --store DIR   content-addressed result store: serve hits, publish misses\n"
        "  --no-cache    with --store: recompute every cell, refresh the store\n"
        "  --count       print the number of grid cells and exit\n"
        "  --list        print cell indices and labels and exit\n"
        "  --version     print the engine fingerprint (part of every cache key) and,\n"
        "                on a second line, the SHA-256 kernel this host runs\n";
  return code;
}

void write_sink(const std::string& path, const std::string& what,
                const std::vector<stclock::experiment::SweepCell>& cells,
                const std::vector<stclock::experiment::ScenarioResult>& results,
                void (*writer)(std::ostream&, const std::vector<stclock::experiment::SweepCell>&,
                               const std::vector<stclock::experiment::ScenarioResult>&)) {
  if (path == "-") {
    writer(std::cout, cells, results);
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + what + " output file: " + path);
  writer(out, cells, results);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stclock;

  std::string grid_path;
  std::string cells_range;
  std::string csv_path;
  std::string json_path;
  std::string store_dir;
  unsigned threads = 1;
  bool count_only = false;
  bool list_only = false;
  bool no_cache = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--version") {
      std::cout << experiment::engine_fingerprint() << "\n"
                << "sha256: " << crypto::sha256_kernel() << "\n";
      return 0;
    }
    if (arg == "--count") {
      count_only = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--cells" && i + 1 < argc) {
      cells_range = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "scenrun: unknown option: " << arg << "\n";
      return usage(std::cerr, 2);
    } else if (grid_path.empty()) {
      grid_path = arg;
    } else {
      std::cerr << "scenrun: more than one grid file given\n";
      return usage(std::cerr, 2);
    }
  }
  if (grid_path.empty()) {
    std::cerr << "scenrun: no grid file given\n";
    return usage(std::cerr, 2);
  }
  if (no_cache && store_dir.empty()) {
    std::cerr << "scenrun: --no-cache only makes sense with --store\n";
    return usage(std::cerr, 2);
  }

  try {
    const experiment::SweepGrid grid = scenfile::load_grid_file(grid_path);
    std::vector<experiment::SweepCell> cells = grid.cells();

    if (count_only) {
      std::cout << cells.size() << "\n";
      return 0;
    }
    if (list_only) {
      for (const experiment::SweepCell& cell : cells) {
        std::cout << cell.index;
        for (const auto& [axis, value] : cell.labels) {
          std::cout << " " << axis << "=" << value;
        }
        std::cout << "\n";
      }
      return 0;
    }

    if (!cells_range.empty()) {
      const auto [lo, hi] = scenfile::parse_cell_range(cells_range, cells.size());
      cells = std::vector<experiment::SweepCell>(cells.begin() + static_cast<std::ptrdiff_t>(lo),
                                                cells.begin() + static_cast<std::ptrdiff_t>(hi));
    }

    std::unique_ptr<resultstore::ResultStore> store;
    if (!store_dir.empty()) store = std::make_unique<resultstore::ResultStore>(store_dir);

    resultstore::CacheStats cache;
    const std::vector<experiment::ScenarioResult> results = resultstore::run_cells_cached(
        cells, store.get(), threads, /*use_cache=*/!no_cache, &cache);
    if (store) {
      std::cerr << "scenrun: store=" << store_dir << " cells=" << cells.size()
                << " hits=" << cache.hits << " misses=" << cache.misses << "\n";
    }

    if (!csv_path.empty()) {
      write_sink(csv_path, "CSV", cells, results, &experiment::write_csv);
    }
    if (!json_path.empty()) {
      write_sink(json_path, "JSON", cells, results, &experiment::write_json);
    }
    if (csv_path.empty() && json_path.empty()) {
      // Human-readable summary: one line per cell. `windows` is the count of
      // parallel-engine windows; 0 means the cell ran on the sequential path.
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::cout << "cell " << cells[i].index;
        for (const auto& [axis, value] : cells[i].labels) {
          std::cout << " " << axis << "=" << value;
        }
        std::cout << ": max_skew=" << results[i].max_skew
                  << " steady_skew=" << results[i].steady_skew
                  << " local_skew=" << results[i].local_skew
                  << " live=" << (results[i].live ? 1 : 0)
                  << " epochs=" << results[i].topology_epochs
                  << " messages=" << results[i].messages_sent
                  << " dropped=" << results[i].messages_dropped
                  << " stab=" << results[i].stabilization_time
                  << " windows=" << results[i].parallel_windows << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "scenrun: " << e.what() << "\n";
    return 1;
  }
}
