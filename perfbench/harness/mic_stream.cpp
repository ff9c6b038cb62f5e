// mic-stream: rt::StreamRuntime with 8 microphones and 2 workers under a
// closed-loop producer.  Blocks are pre-rendered machine-room noise plus
// tones on a 32-slot, 20 Hz plan; the benchmark keeps the ground-truth
// ledger of every tone and scores the merged event stream against it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <random>
#include <string>

#include "audio/fan.h"
#include "bench.h"
#include "mdn/tone_detector.h"
#include "rt/stream_runtime.h"

namespace perfbench {
namespace {

using namespace mdn;

constexpr double kSampleRate = 48000.0;
constexpr std::size_t kBlock = 2400;        // 50 ms at 48 kHz
constexpr std::uint32_t kMics = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSlots = 32;
constexpr double kBaseHz = 5000.0;          // above the fans' harmonics
constexpr double kSpacingHz = 20.0;
constexpr std::size_t kDistinctHops = 320;  // rendered audio: 16 s per mic
constexpr std::size_t kCycles = 2;          // an episode replays it twice
constexpr std::size_t kHops = kDistinctHops * kCycles;
constexpr double kBedS = 1.0;               // machine-room bed loop

struct Tone {
  std::uint32_t mic = 0;
  std::uint32_t watch = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

class MicStream final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    std::mt19937_64 rng(seed);
    auto uniform = [&rng](double lo, double hi) {
      return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
    };
    const double cycle_s = static_cast<double>(kDistinctHops) * kHopS;
    signals_.assign(kMics, {});
    ledger_.clear();
    std::vector<Tone> cycle;
    for (std::uint32_t mic = 0; mic < kMics; ++mic) {
      std::vector<double>& signal = signals_[mic];
      signal.resize(kDistinctHops * kBlock);
      // A short bed, looped: synthesising the whole cycle at once would
      // hold several cycle-length temporaries, and that transient, not
      // the program, would set the process's peak resident set.
      const audio::Waveform bed = audio::generate_machine_room(
          6, kBedS, kSampleRate, 0.02, rng());
      for (std::size_t i = 0; i < signal.size(); ++i) {
        signal[i] = bed[i % bed.size()];
      }
      // Tones at random onsets; the last block of the cycle stays free so
      // no tone straddles the replay seam.
      double t = uniform(0.0, 0.2);
      for (;;) {
        const double len = uniform(0.020, 0.120);
        if (t + len > cycle_s - kHopS) break;
        const auto watch = static_cast<std::uint32_t>(rng() % kSlots);
        const double amp = uniform(0.03, 0.1);
        add_tone(signal, t, len, kBaseHz + kSpacingHz * watch, amp);
        cycle.push_back({mic, watch, t, t + len});
        t += len + uniform(0.030, 0.120);
      }
    }
    for (std::size_t c = 0; c < kCycles; ++c) {
      for (Tone tone : cycle) {
        tone.start_s += static_cast<double>(c) * cycle_s;
        tone.end_s += static_cast<double>(c) * cycle_s;
        ledger_.push_back(tone);
      }
    }
    ledger_digest_ = 0xcbf29ce484222325ull;
    for (const Tone& t : ledger_) {
      char buf[64];
      const int n = std::snprintf(buf, sizeof(buf), "%u %u %.17g\n", t.mic,
                                  t.watch, t.start_s);
      ledger_digest_ = fnv1a(
          std::string_view(buf, static_cast<std::size_t>(n)), ledger_digest_);
    }
  }

  Episode run_episode(SpanLog& spans) override {
    return run(spans, kWorkers, &last_events_);
  }

  // Closed loop: a hop's wall is the wait for worker throughput.
  bool fixed_work_hops() const override { return false; }

  void traced_extras(double traced_wall_s, Episode& extras,
                     SpanLog& spans) override {
    // Equivalence: the merged stream at 1 worker must equal 2 workers'.
    std::vector<rt::StreamEvent> one_worker;
    SpanLog quiet;
    const Episode single = run(quiet, 1, &one_worker);
    extras.check(one_worker.size() == last_events_.size() &&
                     std::equal(one_worker.begin(), one_worker.end(),
                                last_events_.begin()),
                 "merged StreamEvent stream differs at 1 vs 2 workers");
    extras.checks += single.checks;
    extras.failed_checks.insert(extras.failed_checks.end(),
                                single.failed_checks.begin(),
                                single.failed_checks.end());

    // Serial baseline: one thread runs detect_into over the timed blocks.
    const core::ToneDetector detector(config(1).detector);
    detector.warm_up();
    std::vector<core::DetectedTone> tones;
    Timed t_serial(spans, "ToneDetector::detect_into (serial baseline)");
    for (std::size_t hop = warmup_hops(); hop < kHops; ++hop) {
      for (std::uint32_t mic = 0; mic < kMics; ++mic) {
        detector.detect_into(block(hop, mic), tones);
      }
    }
    const double serial_s = t_serial.stop();
    extras.layer["rt.parallel_efficiency"] =
        serial_s / (static_cast<double>(kWorkers) * traced_wall_s);
  }

 private:
  static void add_tone(std::vector<double>& signal, double start_s,
                       double len_s, double hz, double amp) {
    const auto first = static_cast<std::size_t>(start_s * kSampleRate);
    const auto n = static_cast<std::size_t>(len_s * kSampleRate);
    const double ramp = 0.002 * kSampleRate;  // 2 ms raised-cosine edges
    for (std::size_t i = 0; i < n && first + i < signal.size(); ++i) {
      const double edge = std::min(static_cast<double>(i),
                                   static_cast<double>(n - 1 - i));
      const double env =
          edge >= ramp ? 1.0
                       : 0.5 - 0.5 * std::cos(std::numbers::pi * edge / ramp);
      signal[first + i] +=
          amp * env *
          std::sin(2.0 * std::numbers::pi * hz *
                   static_cast<double>(first + i) / kSampleRate);
    }
  }

  static rt::StreamRuntimeConfig config(std::size_t workers) {
    rt::StreamRuntimeConfig cfg;
    cfg.workers = workers;
    cfg.drop_policy = rt::DropPolicy::kBlock;
    cfg.detector.sample_rate = kSampleRate;
    cfg.detector.block_size = kBlock;
    // Tones play 20-40 dB above the detector floor: a block that holds
    // only a few ms of a tone falls under it, which is the framing loss
    // the detector's recall should show.
    cfg.detector.min_amplitude = 0.02;
    for (std::size_t s = 0; s < kSlots; ++s) {
      cfg.watch_hz.push_back(kBaseHz + kSpacingHz * static_cast<double>(s));
    }
    return cfg;
  }

  // The producer fills every ring before the closed loop reaches steady
  // state; those hops are warm-up, part of set-up.
  static std::size_t warmup_hops() { return config(1).ring_capacity; }

  std::span<const double> block(std::size_t hop, std::uint32_t mic) const {
    return std::span<const double>(signals_[mic])
        .subspan((hop % kDistinctHops) * kBlock, kBlock);
  }

  Episode run(SpanLog& spans, std::size_t workers,
              std::vector<rt::StreamEvent>* events) {
    Episode ep;
    obs::Registry::global().reset();

    const auto setup_start = Clock::now();
    Timed t_build(spans, "StreamRuntime construct + add_mic");
    rt::StreamRuntime runtime(config(workers));
    for (std::uint32_t m = 0; m < kMics; ++m) {
      runtime.add_mic("mic-" + std::to_string(m));
    }
    t_build.stop();
    Timed t_start(spans, "StreamRuntime::start");
    runtime.start();
    t_start.stop();
    std::size_t hop = 0;
    auto submit_hop = [&](std::vector<double>* submit_s) {
      for (std::uint32_t mic = 0; mic < kMics; ++mic) {
        Timed t(spans, "StreamRuntime::submit_block");
        runtime.submit_block(mic, static_cast<double>(hop) * kHopS,
                             block(hop, mic), {});
        const double s = t.stop();
        if (submit_s != nullptr) submit_s->push_back(s);
      }
    };
    Timed t_warm(spans, "warm-up hops (fill rings)");
    for (; hop < warmup_hops(); ++hop) {
      submit_hop(nullptr);
      runtime.poll();
    }
    t_warm.stop();
    ep.setup_s = elapsed_s(setup_start, Clock::now());

    std::vector<obs::Gauge*> depth;
    for (std::uint32_t m = 0; m < kMics; ++m) {
      depth.push_back(&obs::Registry::global().gauge(
          "rt/mic/" + std::to_string(m) + "/queue_depth"));
    }
    auto worker_hists = [workers] {
      std::vector<obs::HistogramSnapshot> v;
      for (std::size_t t = 0; t < workers; ++t) {
        v.push_back(hist("rt/worker/" + std::to_string(t) + "/block_wall_ns"));
      }
      return v;
    };
    const auto w0 = worker_hists();
    const auto fft0 = hist("dsp/fft/wall_ns");
    Checkpoints cp;
    cp.take();
    std::vector<double> submit_s;
    std::vector<double> depth_mean;
    submit_s.reserve((kHops - hop) * kMics);
    double poll_s = 0.0;
    const std::size_t timed_hops = kHops - hop;
    for (std::size_t k = 1; hop < kHops; ++hop, ++k) {
      Timed t_hop(spans, "hop: 8 x submit_block + poll");
      submit_hop(&submit_s);
      Timed t_poll(spans, "StreamRuntime::poll");
      runtime.poll();
      poll_s += t_poll.stop();
      ep.hop_ms.push_back(t_hop.stop() * 1e3);
      double d = 0.0;
      for (const obs::Gauge* g : depth) d += static_cast<double>(g->value());
      depth_mean.push_back(d / kMics);
      if (quarter_mark(k, timed_hops)) cp.take();
    }
    const auto w1 = worker_hists();
    const auto fft1 = hist("dsp/fft/wall_ns");
    for (double ms : ep.hop_ms) ep.timed_wall_s += ms / 1e3;
    ep.timed_sim_s = static_cast<double>(timed_hops) * kHopS;

    Timed t_finish(spans, "StreamRuntime::finish");
    runtime.finish();
    t_finish.stop();
    const auto stats = runtime.stats();
    if (events != nullptr) *events = runtime.events();
    score(ep, runtime.events());

    std::uint64_t digest = 0xcbf29ce484222325ull;
    for (const auto& e : runtime.events()) {
      char buf[96];
      const int n = std::snprintf(buf, sizeof(buf), "%llu %u %u %.17g\n",
                                  static_cast<unsigned long long>(e.seq),
                                  e.mic, e.watch, e.amplitude);
      digest = fnv1a(std::string_view(buf, static_cast<std::size_t>(n)),
                     digest);
    }
    ep.digests["events"] = digest;
    ep.digests["trace"] = ledger_digest_;

    const std::uint64_t drops = stats.dropped_oldest + stats.dropped_newest;
    ep.ops_attempted = stats.submitted;
    ep.ops_failed = drops;
    ep.check(stats.processed + drops == stats.submitted,
             "runtime lost blocks: processed + dropped != submitted");
    ep.check(!runtime.events().empty(), "runtime detected no tones");

    const double wall_ns = ep.timed_wall_s * 1e9;
    const double capacity_ns = wall_ns * static_cast<double>(workers);
    std::vector<obs::HistogramSnapshot> busy;
    double busy_ns = 0.0;
    for (std::size_t t = 0; t < workers; ++t) {
      busy.push_back(hist_delta(w1[t], w0[t]));
      busy_ns += busy.back().sum;
    }
    const auto fft = hist_delta(fft1, fft0);
    double submit_total = 0.0;
    for (double s : submit_s) submit_total += s;
    auto& L = ep.layer;
    L["rt.submit_p50_us"] = quantile(submit_s, 0.5) * 1e6;
    L["rt.submit_p90_us"] = quantile(submit_s, 0.9) * 1e6;
    L["rt.submit_share"] = submit_total / ep.timed_wall_s;
    L["rt.poll_share"] = poll_s / ep.timed_wall_s;
    L["rt.worker_busy_share"] = busy_ns / capacity_ns;
    L["rt.block_wall_p50_us"] = hist_merge(busy).quantile(0.5) / 1e3;
    L["rt.queue_depth_p50"] = median(depth_mean);
    L["rt.drops"] = static_cast<double>(drops);
    L["mdn.detect_share"] = fft.sum / capacity_ns;
    L["mdn.detect_p50_us"] = fft.quantile(0.5) / 1e3;
    L["dsp.fft_p50_us"] = fft.quantile(0.5) / 1e3;
    L["mdn.blocks"] = static_cast<double>(stats.processed);
    L["mdn.onsets"] = static_cast<double>(stats.delivered);
    L["audio.rss_growth_mb"] = cp.rss.back() - cp.rss[1];
    // 1 by construction, up to timer overhead: the hop timer encloses
    // exactly the timed submit and poll calls.
    L["layer_share_sum"] = L["rt.submit_share"] + L["rt.poll_share"];
    return ep;
  }

  // Matches every merged event to the ledger: an event on (mic, watch)
  // in block seq is a hit on the earliest unmatched tone of that cell
  // overlapping the block, a duplicate when only matched tones overlap,
  // and a false positive otherwise.
  void score(Episode& ep, const std::vector<rt::StreamEvent>& events) const {
    std::vector<char> matched(ledger_.size(), 0);
    std::vector<double> latencies;
    std::uint64_t hits = 0;
    std::uint64_t false_positives = 0;
    for (const auto& e : events) {
      const double b0 = static_cast<double>(e.seq) * kHopS;
      const double b1 = b0 + kHopS;
      bool any = false;
      bool hit = false;
      for (std::size_t i = 0; i < ledger_.size(); ++i) {
        const Tone& t = ledger_[i];
        if (t.mic != e.mic || t.watch != e.watch) continue;
        if (t.start_s >= b1 || t.end_s <= b0) continue;
        any = true;
        if (matched[i] == 0) {
          matched[i] = 1;
          latencies.push_back(b1 - t.start_s);
          hit = true;
          break;
        }
      }
      if (hit) {
        ++hits;
      } else if (!any) {
        ++false_positives;
      }
    }
    ep.recall = ledger_.empty() ? 1.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(ledger_.size());
    ep.precision = hits + false_positives == 0
                       ? 1.0
                       : static_cast<double>(hits) /
                             static_cast<double>(hits + false_positives);
    ep.tone_latency_p50_ms = latency_p50_ms(latencies);
  }

  std::vector<std::vector<double>> signals_;  // one cycle per mic
  std::vector<Tone> ledger_;
  std::uint64_t ledger_digest_ = 0;  // the workload's input trace digest
  std::vector<rt::StreamEvent> last_events_;
};

}  // namespace

std::unique_ptr<Workload> make_mic_stream() {
  return std::make_unique<MicStream>();
}

}  // namespace perfbench
