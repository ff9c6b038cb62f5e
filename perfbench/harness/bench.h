// Shared harness for the repository benchmark (see perfbench/README.md).
//
// The harness drives the program only through its public APIs and times
// those calls from outside.  A run repeats fixed-length *episodes* of one
// workload until its wall budget is spent; every episode rebuilds the
// program objects from the same generated inputs, so the quality metrics
// (recall, precision, tone latency) and digests of every episode must be
// identical, and the timing metrics are medians over episodes and hops.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/event_loop.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/scoreboard.h"

namespace perfbench {

namespace net = mdn::net;
namespace obs = mdn::obs;
using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Benchmark-side spans, kept in memory and written once as a Chrome
/// trace at the end of a traced run.  Disabled spans cost one branch;
/// past kCapacity spans are counted but not kept.
class SpanLog {
 public:
  SpanLog();
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  void add(const char* name, Clock::time_point start, Clock::time_point end);
  std::size_t size() const noexcept { return spans_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;
  bool write_chrome_trace(const std::string& path,
                          std::string_view workload) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Times one call; records a span when the log is enabled and returns
/// the duration either way.
class Timed {
 public:
  Timed(SpanLog& log, const char* name) : log_(log), name_(name),
      start_(Clock::now()) {}
  /// Ends the span; returns its duration in seconds.
  double stop() {
    const auto end = Clock::now();
    if (log_.enabled()) log_.add(name_, start_, end);
    return elapsed_s(start_, end);
  }

 private:
  SpanLog& log_;
  const char* name_;
  Clock::time_point start_;
};

/// Exact sample quantile with linear interpolation between order
/// statistics (the convention of numpy's default and Python's
/// statistics.quantiles 'inclusive' method).  0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Current and peak resident set of this process, in MB.
double rss_mb();
double peak_rss_mb();

/// Registry histogram helpers: snapshots by name from the global
/// registry, and the distribution recorded between two snapshots.
obs::HistogramSnapshot hist(const std::string& name);
obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& later,
                                  const obs::HistogramSnapshot& earlier);
/// Bucket-wise sum of snapshots taken with one layout.
obs::HistogramSnapshot hist_merge(
    const std::vector<obs::HistogramSnapshot>& parts);
std::uint64_t counter(const std::string& name);

/// FNV-1a over bytes, for output digests.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// A fixed throughput-bound kernel that touches no program code; its
/// wall time before and after a workload shows host contention.
double host_probe_ms();

/// Everything one episode measured.
struct Episode {
  double setup_s = 0.0;
  std::vector<double> hop_ms;  ///< timed hops
  double timed_sim_s = 0.0;
  double timed_wall_s = 0.0;   ///< sum of timed hops
  // Quality (deterministic for a seed).
  double recall = 0.0;
  double precision = 0.0;
  double tone_latency_p50_ms = 0.0;
  /// Digests of the episode's outputs, name -> value; must repeat for a
  /// seed.  "trace" is the workload's input digest.
  std::map<std::string, std::uint64_t> digests;
  // Failure accounting: operations attempted / failed, and checks.
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_failed = 0;
  std::vector<std::string> failed_checks;
  std::uint64_t checks = 0;
  /// Per-layer metrics (always filled; reported by traced runs).
  std::map<std::string, double> layer;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failed_checks.push_back(what);
  }
};

/// One workload: inputs are generated once per run from the seed, then
/// episodes replay them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from the seed (not timed, not set-up).
  virtual void generate(std::uint64_t seed) = 0;
  virtual Episode run_episode(SpanLog& spans) = 0;
  /// True when hop k does the same work in every episode, so hop
  /// positions compare across episodes (see timing() in main.cpp).
  virtual bool fixed_work_hops() const { return true; }
  /// Extra traced-run measurements and checks (e.g. serial baselines)
  /// into `extras`; `traced_wall_s` is the traced episodes' median timed
  /// wall.  Per-layer metrics set here override the episode medians.
  virtual void traced_extras(double traced_wall_s, Episode& extras,
                             SpanLog& spans) {
    (void)traced_wall_s;
    (void)extras;
    (void)spans;
  }
};

std::unique_ptr<Workload> make_fleet_zipf();
std::unique_ptr<Workload> make_mic_stream();
std::unique_ptr<Workload> make_lb_soak();

/// Hop length every workload advances by (the paper's 50 ms block).
inline constexpr double kHopS = 0.05;

/// Registry snapshots at quarter checkpoints of a timed phase: record
/// time growth and RSS growth.
struct Checkpoints {
  std::vector<obs::HistogramSnapshot> record;
  std::vector<double> rss;
  void take();
};

/// True when hop `k` (1-based) of `n` closes a quarter of the phase.
inline bool quarter_mark(std::size_t k, std::size_t n) {
  for (std::size_t i = 1; i <= 4; ++i) {
    if (k == i * n / 4) return true;
  }
  return false;
}

/// The timed phase of an event-loop workload: `hops` run_until slices of
/// kHopS from `from`, each followed by `after_hop` inside the hop's timer.
/// Fills the hop times and the net/audio/mdn per-layer metrics from
/// registry deltas across the phase, and checks the nesting those
/// shares rely on: loop callbacks run inside the timed slices, and the
/// controller's record/detect/match timers inside the callbacks.
void run_loop_hops(Episode& ep, SpanLog& spans, net::EventLoop& loop,
                   net::SimTime from, std::size_t hops,
                   const std::function<void()>& after_hop = {});

/// After an event-loop workload has drained: the quality metrics and
/// digest from its scoreboard, failure accounting (mp malformed
/// messages, sdn failed sends) and the mp/sdn/obs per-layer counters.
void event_loop_outputs(Episode& ep, const obs::Scoreboard& board,
                        const obs::Journal& journal);

/// p50 of latencies (seconds) through an obs registry histogram, the
/// estimator the program's own exporters use; returns milliseconds.
double latency_p50_ms(const std::vector<double>& latencies_s);

}  // namespace perfbench
