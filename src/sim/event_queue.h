#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/message.h"
#include "util/types.h"

/// Time-ordered event queue for the discrete-event simulator.
///
/// Events at equal real times are dispatched in insertion order (a strictly
/// increasing sequence number breaks ties), which makes every run fully
/// deterministic for a given seed.
///
/// Internally this is a ladder queue (Tang et al.), not a binary heap: a
/// small sorted "bottom" list serves pops in O(1), everything further out
/// sits in unsorted time-bucketed rungs (plus an unsorted "top" catch-all)
/// and is only sorted — one bucket at a time — when the simulation clock
/// actually reaches it. A binary heap sifts a 32-byte entry through O(log n)
/// levels on every op; at n = 10^6 the standing population is millions of
/// deliveries and the sifts dominate the run (BM_EventQueue_Churn). The
/// ladder does O(1) amortized work per event regardless of population, and
/// pops the exact same (time, seq) order as the heap did — the golden suite
/// and a property test against a reference heap pin this bit-for-bit.
///
/// The ladder exploits the discrete-event contract the heap never could:
/// pushes are never earlier than the last pop (the simulator only schedules
/// into the future). push_timer/push_delivery enforce this.
///
/// The ladder has no runtime knobs: its two shape thresholds are the
/// compile-time constants kSpawnThreshold and kBottomOverflow, fixed from a
/// churn and broadcast-burst grid sweep (README, "Ladder tuning evidence").
///
/// Entries stay slim PODs: timer payloads (two ids) are inlined, and
/// delivery payloads live in a free-listed slab referenced by slot, so
/// bucket moves never touch a shared_ptr refcount.
namespace stclock {

using TimerId = std::uint64_t;

struct TimerEvent {
  NodeId node = 0;
  TimerId id = 0;
};

struct DeliveryEvent {
  NodeId to = 0;
  NodeId from = 0;
  std::shared_ptr<const Message> msg;
  RealTime sent_at = 0;
};

/// A popped event, materialized from the queue's slim internal
/// representation: `timer` is meaningful when is_timer, `delivery` otherwise.
struct Event {
  RealTime time = 0;
  std::uint64_t seq = 0;
  bool is_timer = false;
  TimerEvent timer;
  DeliveryEvent delivery;
};

class EventQueue {
 public:
  /// Pre-sizes the delivery slab and the staging arrays for `events`
  /// resident events, so the steady state never reallocates.
  void reserve(std::size_t events);

  /// Both push fronts require time >= the last popped time: the simulator
  /// only ever schedules into the (non-strict) future, and the ladder's
  /// bucket spine depends on it.
  void push_timer(RealTime time, TimerEvent ev);
  void push_delivery(RealTime time, DeliveryEvent ev);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Earliest pending time. Non-const: peeking may sort the next bucket
  /// into the bottom list (observable state is untouched). Requires !empty().
  [[nodiscard]] RealTime next_time();

  /// Removes and returns the earliest event. Requires !empty().
  [[nodiscard]] Event pop();

  /// Window-bounded drain: pops the earliest event iff one exists with
  /// time < end_exclusive and time <= horizon, else leaves the queue
  /// untouched and returns false. The parallel simulator drains one
  /// lookahead window [t, t + min_delay) with this, never consuming the
  /// event that closes the window.
  [[nodiscard]] bool pop_window(RealTime end_exclusive, RealTime horizon, Event& out);

  /// Consumes one sequence number without pushing an event. The parallel
  /// commit phase uses this for events it executed in place (same-window
  /// self-deliveries and timers): the sequential engine would have pushed
  /// and later popped them, so skipping the push must still advance the
  /// tie-break counter for the (time, seq) order of every later push to
  /// match the sequential run exactly.
  [[nodiscard]] std::uint64_t take_seq() { return next_seq_++; }

 private:
  struct Entry {
    RealTime time = 0;
    std::uint64_t seq = 0;
    TimerId timer_id = 0;            ///< timer payload (is_timer only)
    std::uint32_t node_or_slot = 0;  ///< timer target node, or delivery slab slot
    bool is_timer = false;
  };

  /// One ladder rung: `buckets.size()` unsorted buckets of `width` seconds
  /// tiling [start, end). Buckets before `cur` have been drained (into the
  /// bottom list or a deeper rung) and never refill — routing sends their
  /// time range to the bottom list instead.
  struct Rung {
    double start = 0;
    double width = 0;
    RealTime end = 0;     ///< exclusive upper bound of times this rung accepts
    std::size_t cur = 0;  ///< first bucket not yet drained
    std::vector<std::vector<Entry>> buckets;
  };

  /// Buckets larger than this spawn a deeper rung instead of being sorted
  /// wholesale; a direct sort stays O(k log k) for small k. 64 sat on the
  /// flat optimum of the churn and broadcast-burst grid sweep recorded in
  /// README ("Ladder tuning evidence").
  static constexpr std::size_t kSpawnThreshold = 64;
  /// Spawn-depth backstop: past this, buckets sort directly no matter their
  /// size (each level divides the time range by >= kMinBuckets, so real
  /// workloads never get close).
  static constexpr std::size_t kMaxRungs = 48;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = 65536;
  /// When the bottom list outgrows this with no rungs armed, its tail is
  /// pushed back out to the top so pops stay O(1). From the same sweep.
  static constexpr std::size_t kBottomOverflow = 2048;
  static constexpr std::size_t kBottomKeep = 64;

  void push_entry(RealTime time, Entry e);
  /// Establishes a non-empty bottom list (requires size_ > 0).
  void ensure_bottom();
  void refill_from_rung();
  void transfer_top();
  void maybe_rebalance_bottom();

  [[nodiscard]] static std::size_t raw_index(const Rung& r, RealTime t);
  /// Smallest representable time with raw_index >= k (k >= 1) — the exact
  /// float boundary between buckets, so routing and draining can never
  /// disagree about which side an entry falls on.
  [[nodiscard]] static RealTime bucket_boundary(const Rung& r, std::size_t k);
  [[nodiscard]] std::size_t bottom_active() const { return bottom_.size() - bot_head_; }

  /// Sorted ascending by (time, seq); pops at bot_head_. Owns [last pop,
  /// bot_end_).
  std::vector<Entry> bottom_;
  std::size_t bot_head_ = 0;
  RealTime bot_end_ = 0;
  /// rungs_[0] is shallowest (widest range); back() is deepest and owns the
  /// interval right above the bottom list.
  std::vector<Rung> rungs_;
  /// Unsorted catch-all for times beyond every rung.
  std::vector<Entry> top_;
  RealTime top_min_ = 0;
  RealTime top_max_ = 0;

  std::vector<DeliveryEvent> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  RealTime last_pop_time_ = 0;
};

}  // namespace stclock
