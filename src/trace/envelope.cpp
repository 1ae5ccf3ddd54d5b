#include "trace/envelope.h"

#include <algorithm>

#include "util/contracts.h"

namespace stclock {

EnvelopeTracker::EnvelopeTracker(Duration sample_interval)
    : sample_interval_(sample_interval) {
  ST_REQUIRE(sample_interval > 0, "EnvelopeTracker: sample interval must be positive");
}

void EnvelopeTracker::enable_streaming(double slope_lo, double slope_hi,
                                       RealTime steady_start) {
  ST_REQUIRE(last_sample_ < 0, "EnvelopeTracker: enable_streaming before the first sample");
  streaming_ = true;
  stream_lo_ = slope_lo;
  stream_hi_ = slope_hi;
  stream_steady_ = steady_start;
}

void EnvelopeTracker::sample(const Simulator& sim) {
  const RealTime t = sim.now();
  if (last_sample_ >= 0 && t - last_sample_ < sample_interval_) return;
  last_sample_ = t;

  if (streaming_) {
    if (sums_.empty()) sums_.resize(sim.n());
    for (NodeId id : sim.honest_ids()) {
      if (!sim.observe_started(id)) continue;
      const double c = sim.observe_logical(id, t);
      NodeSums& s = sums_[id];
      ++s.samples;
      if (t >= stream_steady_) {
        ++s.window;
        s.st += t;
        s.sc += c;
        s.stt += t * t;
        s.stc += t * c;
      }
      s.upper = std::max(s.upper, c - stream_hi_ * t);
      s.lower = std::max(s.lower, stream_lo_ * t - c);
    }
    return;
  }

  if (series_.empty()) series_.resize(sim.n());
  for (NodeId id : sim.honest_ids()) {
    if (!sim.observe_started(id)) continue;
    series_[id].t.push_back(t);
    series_[id].c.push_back(sim.observe_logical(id, t));
  }
}

EnvelopeTracker::Report EnvelopeTracker::report(double slope_lo, double slope_hi,
                                                RealTime steady_start) const {
  Report rep;
  bool first = true;

  if (streaming_) {
    ST_REQUIRE(slope_lo == stream_lo_ && slope_hi == stream_hi_ &&
                   steady_start == stream_steady_,
               "EnvelopeTracker::report: streaming mode fixed different envelope "
               "parameters at enable_streaming time");
    for (const NodeSums& s : sums_) {
      if (s.samples < 2 || s.window < 2) continue;
      const auto n = static_cast<double>(s.window);
      const double det = n * s.stt - s.st * s.st;
      ST_REQUIRE(det > 0, "EnvelopeTracker::report: degenerate sample times");
      const double slope = (n * s.stc - s.st * s.sc) / det;
      if (first) {
        rep.min_rate = rep.max_rate = slope;
        first = false;
      } else {
        rep.min_rate = std::min(rep.min_rate, slope);
        rep.max_rate = std::max(rep.max_rate, slope);
      }
      rep.upper_offset = std::max(rep.upper_offset, s.upper);
      rep.lower_offset = std::max(rep.lower_offset, s.lower);
    }
    ST_REQUIRE(!first, "EnvelopeTracker::report: no node has enough samples");
    return rep;
  }

  for (const NodeSeries& s : series_) {
    if (s.t.size() < 2) continue;

    // Restrict the fit to the steady-state window.
    std::vector<double> ts, cs;
    for (std::size_t i = 0; i < s.t.size(); ++i) {
      if (s.t[i] >= steady_start) {
        ts.push_back(s.t[i]);
        cs.push_back(s.c[i]);
      }
    }
    if (ts.size() < 2) continue;

    const LinearFit fit = fit_line(ts, cs);
    if (first) {
      rep.min_rate = rep.max_rate = fit.slope;
      first = false;
    } else {
      rep.min_rate = std::min(rep.min_rate, fit.slope);
      rep.max_rate = std::max(rep.max_rate, fit.slope);
    }

    for (std::size_t i = 0; i < s.t.size(); ++i) {
      rep.upper_offset = std::max(rep.upper_offset, s.c[i] - slope_hi * s.t[i]);
      rep.lower_offset = std::max(rep.lower_offset, slope_lo * s.t[i] - s.c[i]);
    }
  }
  ST_REQUIRE(!first, "EnvelopeTracker::report: no node has enough samples");
  return rep;
}

}  // namespace stclock
