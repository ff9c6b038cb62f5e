#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/journal.h"
#include "obs/latency.h"

namespace perfbench {

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(kCapacity); }

void SpanLog::add(const char* name, Clock::time_point start,
                  Clock::time_point end) {
  if (spans_.size() < kCapacity) {
    spans_.push_back({name, start, end});
  } else {
    ++dropped_;
  }
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::string_view workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perfbench %.*s\"}},\n"
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"harness\"}}",
               static_cast<int>(workload.size()), workload.data());
  for (const Span& s : spans_) {
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 s.name, ts, dur);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double rss_mb() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

obs::HistogramSnapshot hist(const std::string& name) {
  return obs::Registry::global().histogram(name).snapshot();
}

obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& later,
                                  const obs::HistogramSnapshot& earlier) {
  obs::HistogramSnapshot d = later;
  d.count -= earlier.count;
  d.sum -= earlier.sum;
  for (std::size_t i = 0; i < d.buckets.size() && i < earlier.buckets.size();
       ++i) {
    d.buckets[i] -= earlier.buckets[i];
  }
  // The window's own extremes are unknown; the cumulative ones bound
  // them, which is all quantile() uses them for.
  return d;
}

obs::HistogramSnapshot hist_merge(
    const std::vector<obs::HistogramSnapshot>& parts) {
  obs::HistogramSnapshot m;
  bool first = true;
  for (const auto& p : parts) {
    if (first) {
      m = p;
      first = false;
      continue;
    }
    if (p.count == 0) continue;
    m.min = m.count == 0 ? p.min : std::min(m.min, p.min);
    m.max = m.count == 0 ? p.max : std::max(m.max, p.max);
    m.count += p.count;
    m.sum += p.sum;
    for (std::size_t i = 0; i < m.buckets.size() && i < p.buckets.size();
         ++i) {
      m.buckets[i] += p.buckets[i];
    }
  }
  return m;
}

std::uint64_t counter(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

double host_probe_ms() {
  // 4 MiB streamed 24 times with a dependent multiply-add: memory and
  // ALU throughput, the resources the workloads contend for.
  std::vector<double> buf(1u << 19, 1.0);
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int pass = 0; pass < 24; ++pass) {
    for (double& x : buf) {
      acc = acc * 0.999999 + x;
      x = acc * 1e-9 + 1.0;
    }
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!std::isfinite(acc)) std::printf("host probe overflow\n");
  return ms;
}

void Checkpoints::take() {
  record.push_back(hist("mdn/controller/record_wall_ns"));
  rss.push_back(rss_mb());
}

namespace {

// Registry timers read the same monotonic clock as the harness; a share
// below this means a timer ran outside the span that should enclose it.
constexpr double kNestingTolerance = 1e-3;

std::map<std::string, obs::HistogramSnapshot> loop_histograms() {
  std::map<std::string, obs::HistogramSnapshot> m;
  for (const char* name :
       {"net/loop/callback_wall_ns", "mdn/controller/record_wall_ns",
        "mdn/controller/detect_wall_ns", "mdn/controller/match_wall_ns",
        "dsp/fft/wall_ns"}) {
    m[name] = hist(name);
  }
  return m;
}

void event_loop_layers(
    Episode& ep, const Checkpoints& cp,
    const std::map<std::string, obs::HistogramSnapshot>& start,
    const std::map<std::string, obs::HistogramSnapshot>& end) {
  auto delta = [&](const char* name) {
    return hist_delta(end.at(name), start.at(name));
  };
  const auto cb = delta("net/loop/callback_wall_ns");
  const auto rec = delta("mdn/controller/record_wall_ns");
  const auto det = delta("mdn/controller/detect_wall_ns");
  const auto match = delta("mdn/controller/match_wall_ns");
  const auto fft = delta("dsp/fft/wall_ns");
  const double wall_ns = ep.timed_wall_s * 1e9;
  auto& L = ep.layer;
  L["net.loop_overhead_share"] = (wall_ns - cb.sum) / wall_ns;
  L["net.unattributed_share"] = (cb.sum - rec.sum - det.sum - match.sum) /
                                wall_ns;
  L["audio.record_share"] = rec.sum / wall_ns;
  L["audio.record_p50_us"] = rec.quantile(0.5) / 1e3;
  L["audio.record_p90_us"] = rec.quantile(0.9) / 1e3;
  L["mdn.detect_share"] = det.sum / wall_ns;
  L["mdn.detect_p50_us"] = det.quantile(0.5) / 1e3;
  L["mdn.match_share"] = match.sum / wall_ns;
  L["dsp.fft_p50_us"] = fft.quantile(0.5) / 1e3;
  // The two remainders make this 1 by construction; the checks below on
  // their signs are what show the attribution holds.
  L["layer_share_sum"] = L["net.loop_overhead_share"] +
                         L["net.unattributed_share"] +
                         L["audio.record_share"] + L["mdn.detect_share"] +
                         L["mdn.match_share"];
  ep.check(L["net.loop_overhead_share"] >= -kNestingTolerance,
           "loop callbacks took longer than the run_until slices "
           "that dispatched them");
  ep.check(L["net.unattributed_share"] >= -kNestingTolerance,
           "record + detect + match took longer than the loop callbacks "
           "that ran them");
  if (cp.record.size() == 5) {
    const double q1 = hist_delta(cp.record[1], cp.record[0]).quantile(0.5);
    const double q4 = hist_delta(cp.record[4], cp.record[3]).quantile(0.5);
    L["audio.record_growth"] = q1 > 0.0 ? q4 / q1 : 0.0;
    L["audio.rss_growth_mb"] = cp.rss[4] - cp.rss[1];
  }
}

// Sim-time latency (ms) from a tone to each application action
// (kAppAction / kFlowMod) in the global journal, as a p50.
double action_latency_p50_ms() {
  obs::LatencyProfiler profiler(obs::Journal::global());
  profiler.profile(obs::JournalKind::kAppAction);
  profiler.profile(obs::JournalKind::kFlowMod);
  std::vector<double> ms;
  for (obs::CauseId action : profiler.actions()) {
    ms.push_back(static_cast<double>(profiler.breakdown(action).total_ns) /
                 1e6);
  }
  return median(std::move(ms));
}

}  // namespace

void run_loop_hops(Episode& ep, SpanLog& spans, net::EventLoop& loop,
                   net::SimTime from, std::size_t hops,
                   const std::function<void()>& after_hop) {
  const net::SimTime hop = net::from_seconds(kHopS);
  Checkpoints cp;
  const auto h0 = loop_histograms();
  const std::uint64_t events0 = loop.dispatched();
  const std::uint64_t blocks0 = counter("mdn/controller/blocks");
  const std::uint64_t onsets0 = counter("mdn/controller/onsets");
  cp.take();
  for (std::size_t k = 1; k <= hops; ++k) {
    Timed t_hop(spans, "EventLoop::run_until");
    loop.run_until(from + static_cast<net::SimTime>(k) * hop);
    if (after_hop) after_hop();
    ep.hop_ms.push_back(t_hop.stop() * 1e3);
    if (quarter_mark(k, hops)) cp.take();
  }
  const auto h1 = loop_histograms();
  for (double ms : ep.hop_ms) ep.timed_wall_s += ms / 1e3;
  ep.timed_sim_s = static_cast<double>(hops) * kHopS;
  ep.layer["net.loop_events"] =
      static_cast<double>(loop.dispatched() - events0);
  ep.layer["mdn.blocks"] =
      static_cast<double>(counter("mdn/controller/blocks") - blocks0);
  ep.layer["mdn.onsets"] =
      static_cast<double>(counter("mdn/controller/onsets") - onsets0);
  event_loop_layers(ep, cp, h0, h1);
}

void event_loop_outputs(Episode& ep, const obs::Scoreboard& board,
                        const obs::Journal& journal) {
  const auto g = board.grand_totals();
  std::vector<double> latencies;
  for (std::size_t m = 0; m < board.mic_count(); ++m) {
    for (std::size_t w = 0; w < board.watch_count(); ++w) {
      const auto& c = board.cell(m, w);
      latencies.insert(latencies.end(), c.latencies_s.begin(),
                       c.latencies_s.end());
    }
  }
  ep.recall = g.recall();
  ep.precision = g.precision();
  ep.tone_latency_p50_ms = latency_p50_ms(latencies);
  ep.digests["scoreboard"] = fnv1a(board.render());

  const std::uint64_t played = counter("mp/bridge/tones_played");
  const std::uint64_t malformed = counter("mp/bridge/malformed");
  const std::uint64_t emitted = counter("mp/emitter/emitted");
  const std::uint64_t suppressed = counter("mp/emitter/suppressed");
  const std::uint64_t flow_mods = counter("sdn/controller/flow_mods");
  const std::uint64_t failed_sends = counter("sdn/controller/failed_sends");
  ep.ops_attempted += played + malformed + flow_mods + failed_sends;
  ep.ops_failed += malformed + failed_sends;

  auto& L = ep.layer;
  L["mp.tones_played"] = static_cast<double>(played);
  L["mp.suppressed_ratio"] =
      emitted + suppressed == 0
          ? 0.0
          : static_cast<double>(suppressed) /
                static_cast<double>(emitted + suppressed);
  L["mdn.action_latency_p50_ms"] = action_latency_p50_ms();
  L["sdn.flow_mods"] = static_cast<double>(flow_mods);
  L["sdn.failed_sends"] = static_cast<double>(failed_sends);
  L["obs.journal_records"] = static_cast<double>(journal.appended());
  ep.check(journal.evicted() == 0,
           "journal evicted records; scoreboard incomplete");
}

double latency_p50_ms(const std::vector<double>& latencies_s) {
  obs::Histogram h;
  for (double s : latencies_s) h.record(s * 1e9);
  return h.quantile(0.5) / 1e6;
}

}  // namespace perfbench
