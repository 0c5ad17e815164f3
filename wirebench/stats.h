// stats.h — the benchmark's own arithmetic, kept free of I/O so the test
// suite under tests/ can check it on known data:
//
//   * nearest-rank percentiles, reported with their sample counts;
//   * open-loop due-time accounting: latency counts from when a session
//     was DUE, so a generator stall is charged to every session it
//     delayed, and the generator's own lateness is reported beside it;
//   * growth checks over a run (lateness, live-session backlog);
//   * span self time and the per-verdict ledger, whose lines plus the
//     unattributed remainder add up to the measured total.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least q·n samples at or below it. q in (0, 1]; 0 for an empty set.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 0.5);
}

/// A latency distribution as reported: p50, p99, how many samples it
/// rests on and how many lie strictly beyond p99 (the guide's rule: quote
/// a percentile only with at least ten samples beyond it).
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
  std::size_t beyond_p99 = 0;
};

inline LatencySummary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  LatencySummary s;
  s.samples = v.size();
  s.p50 = percentile_sorted(v, 0.50);
  s.p99 = percentile_sorted(v, 0.99);
  s.beyond_p99 = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), s.p99));
  return s;
}

/// Indices of the `share` of samples (at least one) with the least host
/// steal time, quietest first. The benchmark runs on shared virtual
/// machines where other guests take a varying share of the CPUs; scoring
/// the quietest slices of a run measures the program, not its neighbours.
inline std::vector<std::size_t> quietest(const std::vector<double>& steal,
                                         double share) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&steal](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  const auto keep = static_cast<std::size_t>(share * static_cast<double>(idx.size()));
  idx.resize(std::min(idx.size(), std::max<std::size_t>(keep, 1)));
  return idx;
}

/// Median of `values` over the quietest `share` of them by `steal`.
inline double quiet_median(const std::vector<double>& values,
                           const std::vector<double>& steal, double share) {
  std::vector<double> kept;
  for (const std::size_t i : quietest(steal, share)) kept.push_back(values[i]);
  return median(kept);
}

// --- open loop -----------------------------------------------------------

/// Due times (µs from round start) of `n` sessions arriving as a Poisson
/// process at `rate_per_s`, drawn from `seed` alone.
inline std::vector<double> poisson_due_us(std::uint64_t seed,
                                          double rate_per_s, std::size_t n) {
  std::vector<double> due(n);
  std::uint64_t s = seed;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // splitmix64 -> uniform in (0, 1]
    s += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double u =
        (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) * 1e6 / rate_per_s;
    due[i] = t;
  }
  return due;
}

/// Median of the first and of the last quarter of a series sampled in
/// time order — the growth test used for lateness and backlog. Medians,
/// so one transient host stall inside a quarter does not read as growth.
struct Trend {
  double first = 0.0;
  double last = 0.0;
};

inline Trend quarter_trend(const std::vector<double>& series) {
  Trend t;
  const std::size_t q = series.size() / 4;
  if (q == 0) return t;
  const auto b = series.begin();
  t.first = median(std::vector<double>(b, b + static_cast<std::ptrdiff_t>(q)));
  t.last = median(std::vector<double>(series.end() - static_cast<std::ptrdiff_t>(q),
                                      series.end()));
  return t;
}

/// A series "grows over the run" when its last quarter's median exceeds
/// `factor` times its first quarter's plus an absolute `slack` — so
/// steady-state jitter around a small value never trips it.
inline bool grows(const std::vector<double>& series, double factor,
                  double slack) {
  const Trend t = quarter_trend(series);
  return t.last > factor * t.first + slack;
}

/// Per-session open-loop accounting: `due`, `sent` and `done` in µs from
/// round start for sessions that completed. Latency counts from due.
struct OpenLoopAccount {
  std::vector<double> latency_us;   ///< done - due, per session
  std::vector<double> lateness_us;  ///< sent - due, per session (>= 0)
};

inline OpenLoopAccount account_open_loop(const std::vector<double>& due,
                                         const std::vector<double>& sent,
                                         const std::vector<double>& done) {
  OpenLoopAccount a;
  const std::size_t n = std::min({due.size(), sent.size(), done.size()});
  a.latency_us.reserve(n);
  a.lateness_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.lateness_us.push_back(std::max(0.0, sent[i] - due[i]));
    a.latency_us.push_back(done[i] - due[i]);
  }
  return a;
}

// --- spans and the ledger ------------------------------------------------

/// One timed call made by the benchmark into the program. `parent` is the
/// index of the enclosing span in the same thread's log, or kNoParent.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t session = 0;  ///< 0 when the call is not per session
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans. Spans nest (open/close in stack order). Per-name
/// call counts, total time and self time — duration minus the part its
/// child spans cover — are kept exactly for every span; the first `keep`
/// spans are also kept verbatim for the trace file.
class SpanLog {
 public:
  SpanLog(std::size_t names, std::size_t keep)
      : calls_(names, 0), total_ns_(names, 0.0), self_ns_(names, 0.0),
        keep_(keep) {}

  void open(std::uint32_t name, std::uint64_t session, std::int64_t now_ns) {
    Open o;
    o.name = name;
    o.start_ns = now_ns;
    if (kept_.size() < keep_) {
      o.kept = static_cast<std::uint32_t>(kept_.size());
      Span s;
      s.name = name;
      s.parent = stack_.empty() ? Span::kNoParent : stack_.back().kept;
      s.session = session;
      s.start_ns = now_ns;
      kept_.push_back(s);
    }
    stack_.push_back(o);
  }

  /// Close the innermost open span.
  void close(std::int64_t now_ns) {
    const Open o = stack_.back();
    stack_.pop_back();
    const double dur = static_cast<double>(now_ns - o.start_ns);
    ++calls_[o.name];
    total_ns_[o.name] += dur;
    self_ns_[o.name] += dur - o.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (o.kept != Span::kNoParent) kept_[o.kept].end_ns = now_ns;
  }

  const std::vector<std::uint64_t>& calls() const { return calls_; }
  const std::vector<double>& total_ns() const { return total_ns_; }
  const std::vector<double>& self_ns() const { return self_ns_; }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    std::uint32_t name = 0;
    std::uint32_t kept = Span::kNoParent;
    std::int64_t start_ns = 0;
    double child_ns = 0.0;
  };
  std::vector<std::uint64_t> calls_;
  std::vector<double> total_ns_;
  std::vector<double> self_ns_;
  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
};

struct LedgerLine {
  std::string layer;
  double us_per_verdict = 0.0;
};

/// Cost of one verdict split by layer. `total_us` is the untraced
/// end-to-end CPU per verdict; whatever the lines do not explain is the
/// unattributed remainder, so lines + remainder == total by construction.
struct Ledger {
  double total_us = 0.0;
  std::vector<LedgerLine> lines;

  double attributed_us() const {
    double s = 0.0;
    for (const LedgerLine& l : lines) s += l.us_per_verdict;
    return s;
  }
  double unattributed_us() const { return total_us - attributed_us(); }
};

}  // namespace wirebench
