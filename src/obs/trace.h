// Sim-time tracing: spans and instant events stamped with BOTH the
// simulated clock (net::SimTime nanoseconds, passed in by the caller)
// and the wall clock, so a whole experiment replays as a timeline in
// chrome://tracing / Perfetto (see obs::to_chrome_trace).
//
// A Tracer is owned by the recording context — each net::EventLoop has
// one — and is disabled by default: when off, recording is a single
// branch, so tracing-capable code costs nothing in production runs and
// cannot perturb event ordering either way (it only ever observes).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace mdn::obs {

struct TraceEvent {
  std::string name;
  char phase = 'i';              ///< 'X' complete span, 'i' instant
  std::uint32_t track = 0;       ///< index into Tracer::track_names()
  std::int64_t sim_ns = 0;       ///< simulated timestamp
  std::int64_t wall_ns = 0;      ///< wall-clock stamp when recorded
  std::int64_t wall_dur_ns = 0;  ///< span wall duration ('X' only)
};

class Tracer {
 public:
  using WallClock = std::int64_t (*)();

  void enable(bool on = true) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Bounds event storage: at most `cap` events are kept (preallocated
  /// here, so recording never grows the vector); once full, further
  /// events are counted in dropped() instead of stored.  0 restores the
  /// legacy unbounded mode.  Long fleet runs set a cap so an enabled
  /// tracer cannot grow without limit.
  void set_capacity(std::size_t cap);
  std::size_t capacity() const noexcept { return capacity_; }
  /// Events discarded because the capacity was reached.
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Registers (or finds) a named track — one horizontal lane in the
  /// trace viewer, e.g. "net/loop" or "mdn/controller".
  std::uint32_t track(std::string_view name);

  /// Records an instant event at simulated time `sim_ns`.  No-op while
  /// disabled.
  void instant(std::string_view name, std::uint32_t track,
               std::int64_t sim_ns);

  /// Records a completed span that started at simulated time `sim_ns`
  /// and wall time `wall_start_ns`, lasting `wall_dur_ns` of wall time.
  /// (Spans are instantaneous in simulated time — the sim clock does not
  /// advance inside a callback — so the wall duration is the payload.)
  void complete(std::string_view name, std::uint32_t track,
                std::int64_t sim_ns, std::int64_t wall_start_ns,
                std::int64_t wall_dur_ns);

  std::int64_t wall_now() const { return clock_(); }
  /// Tests inject a deterministic clock to make traces golden-testable.
  void set_wall_clock(WallClock clock) noexcept { clock_ = clock; }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<std::string>& track_names() const noexcept {
    return tracks_;
  }

  void clear() noexcept {
    events_.clear();
    dropped_ = 0;
  }

 private:
  bool has_room() noexcept {
    if (capacity_ == 0 || events_.size() < capacity_) return true;
    ++dropped_;
    return false;
  }

  bool enabled_ = false;
  WallClock clock_ = &wall_now_ns;
  std::size_t capacity_ = 0;  ///< 0 = unbounded
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
};

/// RAII wall timer, the one timing mechanism: reads the clock once at
/// each end (the tracer's injectable clock while tracing, else
/// wall_now_ns(), else none), feeds `hist` with `samples` samples of the
/// mean (a batch of n blocks keeps one sample per block), and records a
/// complete event only while `tracer` is non-null and enabled.
class Span {
 public:
  explicit Span(Histogram* hist, Tracer* tracer = nullptr,
                std::string_view name = {}, std::uint32_t track = 0,
                std::int64_t sim_ns = 0, std::size_t samples = 1) noexcept
      : hist_(samples > 0 ? hist : nullptr),
        tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        track_(track),
        sim_ns_(sim_ns),
        samples_(samples),
        start_ns_(now()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    const std::int64_t dur = now() - start_ns_;
    if (tracer_ != nullptr) {
      tracer_->complete(name_, track_, sim_ns_, start_ns_, dur);
    }
    if (hist_ != nullptr) {
      const auto mean = static_cast<double>(
          dur / static_cast<std::int64_t>(samples_));
      for (std::size_t i = 0; i < samples_; ++i) hist_->record(mean);
    }
  }

 private:
  std::int64_t now() const {
    if (tracer_ != nullptr) return tracer_->wall_now();
    return hist_ != nullptr ? wall_now_ns() : 0;
  }

  Histogram* hist_;
  Tracer* tracer_;
  std::string_view name_;
  std::uint32_t track_;
  std::int64_t sim_ns_;
  std::size_t samples_;
  std::int64_t start_ns_;
};

}  // namespace mdn::obs
