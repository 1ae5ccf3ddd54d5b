#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dense_fixtures.h"
#include "resultstore/cache_key.h"
#include "resultstore/codec.h"
#include "resultstore/incremental.h"
#include "resultstore/store.h"

#include "experiment/engine_info.h"
#include "util/digest.h"

/// The content-addressed result store: cache keys must be stable and
/// sensitive to every key input (spec, seed, engine fingerprint); records
/// must round-trip every ScenarioResult field; and NO corruption —
/// truncation, byte mutation, garbage files — may ever surface as anything
/// but a miss. Robustness mirrors the test_scenfile_errors fuzz style:
/// exhaustive small perturbations, asserted crash-free.
namespace stclock::resultstore {
namespace {

namespace fs = std::filesystem;

using experiment::ScenarioResult;
using experiment::ScenarioSpec;

/// A fresh store directory per test, removed on destruction.
class StoreDir {
 public:
  StoreDir() {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("stclock-store-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(dir_);
  }
  ~StoreDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

namespace dense = experiment::dense;

void expect_equal(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.bounds.accept_spread, b.bounds.accept_spread);
  EXPECT_EQ(a.bounds.alpha, b.bounds.alpha);
  EXPECT_EQ(a.bounds.gamma, b.bounds.gamma);
  EXPECT_EQ(a.bounds.precision, b.bounds.precision);
  EXPECT_EQ(a.bounds.pulse_spread, b.bounds.pulse_spread);
  EXPECT_EQ(a.bounds.min_period, b.bounds.min_period);
  EXPECT_EQ(a.bounds.max_period, b.bounds.max_period);
  EXPECT_EQ(a.bounds.rate_lo, b.bounds.rate_lo);
  EXPECT_EQ(a.bounds.rate_hi, b.bounds.rate_hi);
  EXPECT_EQ(a.max_skew, b.max_skew);
  EXPECT_EQ(a.steady_skew, b.steady_skew);
  EXPECT_EQ(a.local_skew, b.local_skew);
  EXPECT_EQ(a.steady_local_skew, b.steady_local_skew);
  EXPECT_EQ(a.skew_series, b.skew_series);
  EXPECT_EQ(a.pulse_spread, b.pulse_spread);
  EXPECT_EQ(a.min_period, b.min_period);
  EXPECT_EQ(a.max_period, b.max_period);
  EXPECT_EQ(a.min_pulses, b.min_pulses);
  EXPECT_EQ(a.max_pulses, b.max_pulses);
  EXPECT_EQ(a.live, b.live);
  EXPECT_EQ(a.envelope.min_rate, b.envelope.min_rate);
  EXPECT_EQ(a.envelope.max_rate, b.envelope.max_rate);
  EXPECT_EQ(a.envelope.upper_offset, b.envelope.upper_offset);
  EXPECT_EQ(a.envelope.lower_offset, b.envelope.lower_offset);
  EXPECT_EQ(a.rate_fit_tolerance, b.rate_fit_tolerance);
  EXPECT_EQ(a.join_latency, b.join_latency);
  EXPECT_EQ(a.joiners_integrated, b.joiners_integrated);
  EXPECT_EQ(a.rejoin_latency, b.rejoin_latency);
  EXPECT_EQ(a.churned_rejoined, b.churned_rejoined);
  EXPECT_EQ(a.topology_epochs, b.topology_epochs);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.corruption_events, b.corruption_events);
  EXPECT_EQ(a.nodes_corrupted, b.nodes_corrupted);
  EXPECT_EQ(a.stabilized, b.stabilized);
  EXPECT_EQ(a.stabilization_time, b.stabilization_time);
}

// --- Cell fingerprint --------------------------------------------------------

TEST(CacheKey, StableAcrossCallsAndShapedLikeADigest) {
  const ScenarioSpec spec;
  const std::string key = cell_key(spec);
  EXPECT_EQ(key, cell_key(spec));
  EXPECT_EQ(key.size(), 32u);
  for (const char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << key;
  }
}

TEST(CacheKey, EverySweepableInputChangesTheKey) {
  const ScenarioSpec base;
  std::set<std::string> keys;
  keys.insert(cell_key(base));

  ScenarioSpec mutated = base;
  mutated.protocol = "echo";
  keys.insert(cell_key(mutated));

  mutated = base;
  mutated.cfg.n = 9;
  keys.insert(cell_key(mutated));

  mutated = base;
  mutated.seed = base.seed + 1;
  keys.insert(cell_key(mutated));

  mutated = base;
  mutated.horizon = base.horizon + 1.0;
  keys.insert(cell_key(mutated));

  mutated = base;
  mutated.topology = TopologyKind::kRing;
  keys.insert(cell_key(mutated));

  mutated = base;
  mutated.topology_events.push_back(
      {experiment::TopologyEventSpec::Kind::kRemoveEdge, 1.0, 0, 1, TopologyKind::kRing});
  keys.insert(cell_key(mutated));

  // 1 base + 6 mutations, all distinct.
  EXPECT_EQ(keys.size(), 7u);
}

// sim_threads is an execution knob, not a scenario input: the parallel
// engine is bit-identical, so a cached sequential cell must hit for a
// parallel request (and vice versa).
TEST(CacheKey, SimThreadsDoesNotChangeTheKey) {
  const ScenarioSpec base;
  ScenarioSpec threaded = base;
  threaded.sim_threads = 8;
  EXPECT_EQ(cell_key(base), cell_key(threaded));
}

TEST(CacheKey, AliasProtocolsThatResolveIdenticallyShareAKey) {
  // "leader_corrupt" is registry sugar for "leader_corrupt" with the attack
  // forced; keying happens AFTER resolution, so requesting the resolved form
  // explicitly maps to the same key.
  ScenarioSpec requested;
  requested.protocol = "leader_corrupt";
  requested.cfg.f = 1;
  EXPECT_EQ(cell_key(requested), cell_key(experiment::resolved_spec(requested)));
}

TEST(CacheKey, EngineFingerprintBumpInvalidatesEveryKey) {
  // The satellite guarantee: stale hits across engine rebuilds are
  // structurally impossible because no key survives a fingerprint change.
  std::vector<ScenarioSpec> specs(4);
  specs[1].protocol = "echo";
  specs[2].cfg.n = 8;
  specs[2].topology = TopologyKind::kRing;
  specs[3].seed = 42;
  for (const ScenarioSpec& spec : specs) {
    const std::string now = cell_key(spec, experiment::engine_fingerprint());
    const std::string bumped = cell_key(spec, "stclock-engine/999.0+deadbeef");
    EXPECT_NE(now, bumped);
    EXPECT_EQ(now, cell_key(spec));  // default overload uses the live fingerprint
  }
}

TEST(CacheKey, DenseSpecKeyIsPinnedUnderAFixedFingerprint) {
  // Stores written by earlier builds keep hitting only while spec_to_json's
  // bytes stay put; a fixed fingerprint isolates those bytes from the build.
  EXPECT_EQ(cell_key(dense::spec(), "stclock-engine/test"),
            "3a4ee3968c728e42bb54ddcd718df845");
}

TEST(EngineInfo, FingerprintNamesTheVersionAndASalt) {
  const std::string& fp = experiment::engine_fingerprint();
  EXPECT_NE(fp.find(experiment::kEngineVersion), std::string::npos);
  EXPECT_NE(fp.find('+'), std::string::npos);
  EXPECT_FALSE(experiment::engine_build_salt().empty());
}

// --- Codec -------------------------------------------------------------------

TEST(ResultCodec, RoundTripsEveryField) {
  const ScenarioResult original = dense::result();
  const Bytes encoded = encode_result(original);
  expect_equal(original, decode_result(encoded));
}

TEST(ResultCodec, DenseResultEncodesToPinnedBytes) {
  const Bytes encoded = encode_result(dense::result());
  EXPECT_EQ(encoded.size(), 360u);
  EXPECT_EQ(util::Digest().update(encoded.data(), encoded.size()).hex(),
            "079df4a1ffe83b09286b6432a1d95d69");
}

TEST(ResultCodec, RejectsVersionMismatchAndTrailingBytes) {
  Bytes encoded = encode_result(dense::result());
  Bytes wrong_version = encoded;
  wrong_version[0] ^= 0xFF;  // version is the leading u32
  EXPECT_THROW((void)decode_result(wrong_version), std::logic_error);

  Bytes trailing = encoded;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_result(trailing), std::logic_error);
}

// --- Store robustness --------------------------------------------------------

TEST(ResultStore, SaveLoadRoundTripAndMissSemantics) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  const std::string key = cell_key(ScenarioSpec{});

  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_FALSE(store.contains(key));

  const ScenarioResult original = dense::result();
  store.save(key, original);
  EXPECT_TRUE(store.contains(key));
  const auto loaded = store.load(key);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(original, *loaded);

  EXPECT_TRUE(store.remove(key));
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_FALSE(store.remove(key));
}

TEST(ResultStore, EveryTruncationIsAMissNeverACrash) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  const std::string key = cell_key(ScenarioSpec{});
  store.save(key, dense::result());

  const fs::path file = store.object_path(key);
  std::ifstream in(file, std::ios::binary);
  std::string record((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_GT(record.size(), 24u);

  for (std::size_t len = 0; len < record.size(); ++len) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(record.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_FALSE(store.load(key).has_value()) << "truncation to " << len << " bytes must miss";
  }
}

TEST(ResultStore, EveryByteMutationIsAMissNeverACrash) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  const std::string key = cell_key(ScenarioSpec{});
  store.save(key, dense::result());

  const fs::path file = store.object_path(key);
  std::ifstream in(file, std::ios::binary);
  std::string record((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  for (std::size_t pos = 0; pos < record.size(); ++pos) {
    std::string mutated = record;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5A);
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();
    EXPECT_FALSE(store.load(key).has_value()) << "byte flip at " << pos << " must miss";
  }
}

TEST(ResultStore, GarbageAndEmptyFilesAreMisses) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  const std::string key = cell_key(ScenarioSpec{});

  const fs::path file = store.object_path(key);
  fs::create_directories(file.parent_path());
  {
    std::ofstream out(file, std::ios::binary);
  }
  EXPECT_FALSE(store.load(key).has_value());
  {
    std::ofstream out(file, std::ios::binary);
    out << "this is not a result record, but it is long enough to have a trailer";
  }
  EXPECT_FALSE(store.load(key).has_value());
}

TEST(ResultStore, ConcurrentWritersOfOneKeyNeverCorruptReaders) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  const std::string key = cell_key(ScenarioSpec{});
  const ScenarioResult value = dense::result();
  store.save(key, value);  // readers must see SOME complete record throughout

  std::atomic<bool> stop{false};
  std::atomic<int> corrupt_reads{0};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) store.save(key, value);
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      const auto loaded = store.load(key);
      if (!loaded.has_value() || loaded->messages_sent != value.messages_sent) {
        corrupt_reads.fetch_add(1);
      }
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(corrupt_reads.load(), 0);
  const auto final_load = store.load(key);
  ASSERT_TRUE(final_load.has_value());
  expect_equal(value, *final_load);
}

TEST(ResultStore, GcDropsOldEntriesKeepsFreshOnes) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  const ScenarioSpec fresh_spec;
  ScenarioSpec old_spec;
  old_spec.seed = 999;
  const std::string fresh_key = cell_key(fresh_spec);
  const std::string old_key = cell_key(old_spec);
  store.save(fresh_key, dense::result());
  store.save(old_key, dense::result());

  // Backdate one record two days; GC with keep = 1 day must drop exactly it.
  fs::last_write_time(store.object_path(old_key),
                      fs::file_time_type::clock::now() - std::chrono::hours(48));
  EXPECT_EQ(store.gc(std::chrono::seconds(86400)), 1u);
  EXPECT_TRUE(store.load(fresh_key).has_value());
  EXPECT_FALSE(store.load(old_key).has_value());
  EXPECT_EQ(store.stats().entries, 1u);

  // keep = 0 empties the store.
  EXPECT_EQ(store.gc(std::chrono::seconds(0)), 1u);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_TRUE(store.keys().empty());
}

TEST(ResultStore, VerifySweepsTheWholeStoreAndNamesTheDamage) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  std::vector<std::string> keys;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioSpec spec;
    spec.seed = seed;
    keys.push_back(cell_key(spec));
    store.save(keys.back(), dense::result());
  }

  // Healthy store: everything checked, nothing reported.
  const ResultStore::VerifyReport clean = store.verify();
  EXPECT_EQ(clean.checked, 4u);
  EXPECT_TRUE(clean.corrupt.empty());
  EXPECT_EQ(clean.orphan_tmp, 0u);

  // Flip one byte mid-payload in one published object: verify must name
  // exactly that key (load() already treats it as a miss; verify makes the
  // damage visible instead of silently re-running).
  const fs::path victim = store.object_path(keys[2]);
  std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(10);
  char b = 0;
  f.seekg(10);
  f.get(b);
  f.seekp(10);
  f.put(static_cast<char>(b ^ 0x5A));
  f.close();

  // And plant an orphaned staging file — the residue of a writer that died
  // between stage and rename.
  { std::ofstream orphan(dir.path() / "tmp" / "dead-writer.tmp"); }

  const ResultStore::VerifyReport damaged = store.verify();
  EXPECT_EQ(damaged.checked, 4u);
  ASSERT_EQ(damaged.corrupt.size(), 1u);
  EXPECT_EQ(damaged.corrupt[0], keys[2]);
  EXPECT_EQ(damaged.orphan_tmp, 1u);
}

TEST(ResultStore, UnusableStoreDirectoryFailsLoudlyAtConstruction) {
  // A store rooted UNDER a regular file can never be created.
  const StoreDir dir;
  fs::create_directories(dir.path());
  { std::ofstream plain(dir.path() / "plain"); }
  EXPECT_THROW(ResultStore(dir.path() / "plain" / "store"), std::runtime_error);

  // A store whose staging area is a regular file exists but cannot stage
  // writes; the constructor's probe must refuse it up front rather than let
  // every later save fail quietly.
  const StoreDir dir2;
  fs::create_directories(dir2.path() / "objects");
  { std::ofstream plain(dir2.path() / "tmp"); }
  EXPECT_THROW(ResultStore(dir2.path()), std::runtime_error);
}

TEST(ResultStore, StatsAndKeysEnumerateTheObjects) {
  const StoreDir dir;
  const ResultStore store(dir.path());
  std::set<std::string> expect;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioSpec spec;
    spec.seed = seed;
    const std::string key = cell_key(spec);
    expect.insert(key);
    store.save(key, dense::result());
  }
  const std::vector<std::string> keys = store.keys();
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()), expect);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(store.stats().entries, 5u);
  EXPECT_GT(store.stats().bytes, 0u);
}

}  // namespace
}  // namespace stclock::resultstore
