#include "resultstore/codec.h"

#include <stdexcept>

namespace stclock::resultstore {

namespace {

using SkewSeries = std::vector<std::pair<RealTime, double>>;

/// The record's one field list, in wire order after the version. `codec` is
/// an Encoder or a Decoder; each maps a field's C++ type to its wire form.
template <typename Result, typename Codec>
void walk(Result& r, Codec&& codec) {
  codec(r.protocol, r.bounds.accept_spread, r.bounds.alpha, r.bounds.gamma, r.bounds.precision,
        r.bounds.pulse_spread, r.bounds.min_period, r.bounds.max_period, r.bounds.rate_lo,
        r.bounds.rate_hi, r.max_skew, r.steady_skew, r.local_skew, r.steady_local_skew,
        r.skew_series, r.pulse_spread, r.min_period, r.max_period, r.min_pulses, r.max_pulses,
        r.live, r.envelope.min_rate, r.envelope.max_rate, r.envelope.upper_offset,
        r.envelope.lower_offset, r.rate_fit_tolerance, r.join_latency, r.joiners_integrated,
        r.rejoin_latency, r.churned_rejoined, r.topology_epochs, r.corruption_events,
        r.nodes_corrupted, r.stabilized, r.stabilization_time, r.messages_sent, r.bytes_sent,
        r.messages_dropped, r.events_dispatched, r.rounds_completed);
}

struct Encoder {
  ByteWriter& w;

  void put(const std::string& v) { w.str(v); }
  void put(double v) { w.f64(v); }
  void put(std::uint64_t v) { w.u64(v); }
  void put(bool v) { w.u8(v ? 1 : 0); }
  void put(const SkewSeries& series) {
    w.u64(series.size());
    for (const auto& [t, skew] : series) {
      w.f64(t);
      w.f64(skew);
    }
  }
  template <typename... Field>
  void operator()(const Field&... fields) {
    (put(fields), ...);
  }
};

struct Decoder {
  ByteReader& r;

  void get(std::string& v) { v = r.str(); }
  void get(double& v) { v = r.f64(); }
  void get(std::uint64_t& v) { v = r.u64(); }
  void get(bool& v) { v = r.u8() != 0; }
  void get(SkewSeries& series) {
    const std::uint64_t samples = r.u64();
    // A length prefix larger than the remaining payload is corruption; fail
    // before allocating.
    if (samples > r.remaining() / 16) {
      throw std::logic_error("resultstore codec: skew series length exceeds payload");
    }
    series.reserve(static_cast<std::size_t>(samples));
    for (std::uint64_t i = 0; i < samples; ++i) {
      const double t = r.f64();
      const double skew = r.f64();
      series.emplace_back(t, skew);
    }
  }
  template <typename... Field>
  void operator()(Field&... fields) {
    (get(fields), ...);
  }
};

}  // namespace

Bytes encode_result(const experiment::ScenarioResult& r) {
  ByteWriter w;
  w.u32(kResultCodecVersion);
  walk(r, Encoder{w});
  return std::move(w).take();
}

experiment::ScenarioResult decode_result(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint32_t version = r.u32();
  if (version != kResultCodecVersion) {
    throw std::logic_error("resultstore codec: unsupported record version");
  }
  experiment::ScenarioResult out;
  walk(out, Decoder{r});
  if (!r.exhausted()) {
    throw std::logic_error("resultstore codec: trailing bytes after record");
  }
  return out;
}

}  // namespace stclock::resultstore
