// Fleet traffic: the TrafficGen workload engine driving §5 detection at
// fleet scale — ≥100 switches in acoustic rooms, ≥64K concurrent flows
// with Zipf skew and churn, scan overlays, and the obs::Scoreboard
// attributing detection precision/recall per (room mic, watched tone).
//
// Usage: bench_fleet_traffic [--smoke]
//   --smoke  small fleet for CI (seconds, same claims / kv key set)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "mdn/mdn.h"
#include "net/net.h"
#include "obs/obs.h"

namespace {

using namespace mdn;

struct Params {
  std::size_t rooms = 8;
  std::size_t switches_per_room = 13;  // 104 switches
  std::size_t flows = 65536;
  double rate_pps = 50000.0;
  double duration_s = 4.0;
  double churn_fpm = 6000.0;
  std::size_t scan_count = 4;
  double scan_pps = 600.0;
  std::vector<double> skews = {0.0, 0.9, 1.26};
};

Params smoke_params() {
  Params p;
  p.rooms = 2;
  p.switches_per_room = 2;
  p.flows = 4096;
  p.rate_pps = 4000.0;
  p.duration_s = 2.5;
  p.churn_fpm = 1200.0;
  p.scan_count = 1;
  p.skews = {0.0, 1.26};
  return p;
}

struct RunResult {
  std::uint64_t trace_digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t scan_packets = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t batches = 0;
  std::uint64_t loop_events = 0;
  std::uint64_t emitted = 0;
  std::uint64_t detected = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t hh_alerts = 0;
  std::uint64_t ps_alerts = 0;
  double recall = 0.0;
  double precision = 0.0;
  double latency_p50_ms = 0.0;
  double wall_s = 0.0;
  std::size_t switches = 0;
  std::size_t watched_cells = 0;
  std::string scoreboard;  ///< full render — the byte-identity artifact
  // Latency attribution over the run's journal (obs::LatencyProfiler).
  std::uint64_t attributed = 0;        ///< detections with a cause chain
  std::uint64_t capture_count = 0;
  std::uint64_t ring_wait_count = 0;
  double capture_p50_ms = 0.0;
  double capture_p99_ms = 0.0;
  double ring_wait_p99_ms = 0.0;
  std::string stage_prom;  ///< per-stage families — byte-identity artifact
  // Registry time series sampled at a fixed sim cadence (obs::Timeline).
  double timeline_packets_delta = 0.0;
  std::string timeline_jsonl;
  // Wall-time stages of this run (us per call, ms summed over the run):
  // the listening controller's record and detect, and TrafficGen's
  // batches, which synchronously run switch receive, reporters,
  // emitters and bridge plays.
  obs::HistogramSnapshot record_wall, detect_wall, batch_wall;
};

/// The stage wall-time histograms TrafficGen and the controllers feed.
constexpr const char* kRecordWall = "mdn/controller/record_wall_ns";
constexpr const char* kDetectWall = "mdn/controller/detect_wall_ns";
constexpr const char* kBatchWall = "net/trafficgen/batch_wall_ns";

obs::HistogramSnapshot wall_snapshot(const char* name) {
  return obs::Registry::global().histogram(name).snapshot();
}

/// What a process-wide histogram recorded between two snapshots.
obs::HistogramSnapshot since(const obs::HistogramSnapshot& before,
                             const char* name) {
  obs::HistogramSnapshot d = wall_snapshot(name);
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

RunResult run_fleet(const Params& p, double skew, double churn_fpm) {
  obs::Journal::global().enable(1u << 18);
  obs::Journal::global().clear();

  net::EventLoop loop;
  core::FleetConfig fcfg;
  fcfg.rooms = p.rooms;
  fcfg.switches_per_room = p.switches_per_room;
  // Tone trains are rate-policed per emitter; the heavy-hitter window
  // threshold is set so a Zipf-dominant bin's tone share crosses it and
  // a uniform bin's share cannot.
  fcfg.emitter_min_gap = 50 * net::kMillisecond;
  fcfg.hh.window_s = 2.0;
  fcfg.hh.threshold = 6;
  core::Fleet fleet(loop, fcfg);

  net::TrafficGenConfig tcfg;
  tcfg.population.total_flows = p.flows;
  tcfg.population.zipf_skew = skew;
  tcfg.rate_pps = p.rate_pps;
  tcfg.churn_fpm = churn_fpm;
  tcfg.stop = net::from_seconds(p.duration_s);
  tcfg.seed = 42;
  tcfg.scan_count = p.scan_count;
  tcfg.scan_pps = p.scan_pps;
  net::TrafficGen gen(loop, tcfg);
  for (std::size_t s = 0; s < fleet.switch_count(); ++s) {
    gen.add_target(fleet.switch_at(s));
  }

  fleet.start();
  gen.start();
  // Keep listening a few blocks past the last packet so in-flight tones
  // (bridge processing delay + tone length) are heard.
  fleet.stop_at(net::from_seconds(p.duration_s + 0.15));

  // Sample the workload instruments on a fixed sim-time grid: the
  // series (and its derived packet delta) must replay byte-identically
  // with the trace.
  obs::Timeline timeline({.capacity = 64});
  timeline.track_counter(obs::Registry::global(), "net/trafficgen/packets");
  timeline.track_counter(obs::Registry::global(),
                         "net/trafficgen/churn_events");
  timeline.track_gauge(obs::Registry::global(), "net/trafficgen/flows_live");
  const net::SimTime sample_end = net::from_seconds(p.duration_s + 0.15);
  loop.schedule_periodic(100 * net::kMillisecond, 100 * net::kMillisecond,
                         [&loop, &timeline, sample_end] {
                           timeline.sample(loop.now());
                           // Stop with the fleet so the loop can drain.
                           return loop.now() < sample_end;
                         });

  const std::uint64_t dispatched_before =
      obs::Registry::global().counter("net/loop/events_dispatched").value();
  const auto record0 = wall_snapshot(kRecordWall);
  const auto detect0 = wall_snapshot(kDetectWall);
  const auto batch0 = wall_snapshot(kBatchWall);
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  obs::ScoreboardConfig scfg;
  scfg.watch_hz = fleet.watch_hz();
  scfg.tolerance_hz = 10.0;
  scfg.mics = fleet.room_count();
  const auto board = obs::Scoreboard::build(obs::Journal::global(), scfg);
  const auto g = board.grand_totals();

  // Attribute every detection's cause chain to pipeline stages; on the
  // inline controller path a tagged detection decomposes into capture
  // (tone start -> block end) plus a zero-width ring wait.
  obs::LatencyProfiler profiler(obs::Journal::global());
  profiler.profile(obs::JournalKind::kToneDetected);
  const auto capture = profiler.stage_stats(obs::LatencyStage::kCapture);
  const auto ring_wait = profiler.stage_stats(obs::LatencyStage::kRingWait);

  RunResult r;
  r.trace_digest = gen.trace_digest();
  r.packets = gen.packets();
  r.scan_packets = gen.scan_packets();
  r.churn_events = gen.churn_events();
  r.batches = gen.batches();
  r.loop_events =
      obs::Registry::global().counter("net/loop/events_dispatched").value() -
      dispatched_before;
  r.emitted = g.emitted;
  r.detected = g.detected;
  r.false_positives = g.false_positives;
  r.hh_alerts = fleet.hh_alert_count();
  r.ps_alerts = fleet.ps_alert_count();
  r.recall = g.recall();
  r.precision = g.precision();
  r.latency_p50_ms = g.latency_quantile(0.5) * 1e3;
  r.wall_s = wall_s;
  r.switches = fleet.switch_count();
  r.watched_cells = fleet.watched_tone_count();
  r.scoreboard = board.render();
  r.attributed = profiler.actions_profiled();
  r.capture_count = capture.count;
  r.ring_wait_count = ring_wait.count;
  r.capture_p50_ms = capture.p50_ns / 1e6;
  r.capture_p99_ms = capture.p99_ns / 1e6;
  r.ring_wait_p99_ms = ring_wait.p99_ns / 1e6;
  r.stage_prom = profiler.to_prometheus();
  r.timeline_packets_delta = timeline.rollup(0).delta;
  r.timeline_jsonl = timeline.to_timeline_jsonl();
  r.record_wall = since(record0, kRecordWall);
  r.detect_wall = since(detect0, kDetectWall);
  r.batch_wall = since(batch0, kBatchWall);
  return r;
}

std::string key(const char* what, double skew, double churn) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s s=%.2f c=%.0f", what, skew, churn);
  return buf;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--smoke]\n"
               "  --smoke  small fleet for CI (same claims / kv key set)\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    std::fprintf(stderr, "bench_fleet_traffic: unknown argument '%s'\n",
                 argv[i]);
    return usage(argv[0]);
  }
  const Params p = smoke ? smoke_params() : Params{};

  bench::print_header(
      "Fleet traffic",
      "TrafficGen workload engine (Zipf + churn) driving heavy-hitter and "
      "port-scan detection across acoustic rooms");
  bench::print_kv("switches", static_cast<double>(
                                  p.rooms * p.switches_per_room));
  bench::print_kv("concurrent flows", static_cast<double>(p.flows));
  bench::print_kv("aggregate rate", p.rate_pps, "pps");
  bench::print_kv("churn", p.churn_fpm, "flows/min");

  // Sweep skew × churn; precision/recall lands in one table.
  std::vector<std::vector<double>> rows;
  RunResult uniform_quiet, zipf_quiet, zipf_churn;
  double total_packets = 0.0, total_loop_events = 0.0, total_wall = 0.0;
  for (double skew : p.skews) {
    for (double churn : {0.0, p.churn_fpm}) {
      const RunResult r = run_fleet(p, skew, churn);
      rows.push_back({skew, churn, static_cast<double>(r.packets),
                      r.recall, r.precision,
                      static_cast<double>(r.false_positives),
                      r.latency_p50_ms, static_cast<double>(r.hh_alerts),
                      static_cast<double>(r.ps_alerts)});
      bench::print_kv(key("recall", skew, churn), r.recall);
      bench::print_kv(key("precision", skew, churn), r.precision);
      if (skew == 0.0 && churn == 0.0) uniform_quiet = r;
      if (skew == p.skews.back() && churn == 0.0) zipf_quiet = r;
      if (skew == p.skews.back() && churn == p.churn_fpm) zipf_churn = r;
      total_packets += static_cast<double>(r.packets);
      total_loop_events += static_cast<double>(r.loop_events);
      total_wall += r.wall_s;
    }
  }
  bench::print_series(
      "scoreboard precision/recall vs zipf skew and churn",
      {"skew", "churn_fpm", "packets", "recall", "precision", "fp",
       "p50_ms", "hh_alerts", "ps_alerts"},
      rows, "%14.3f");

  // Determinism: replay the highest-skew churning config with the same
  // seed; the flow trace digest and the full scoreboard render must be
  // byte-identical.
  const RunResult replay =
      run_fleet(p, p.skews.back(), p.churn_fpm);
  const bool deterministic =
      replay.trace_digest == zipf_churn.trace_digest &&
      replay.scoreboard == zipf_churn.scoreboard &&
      replay.packets == zipf_churn.packets;
  // The derived observability artifacts must replay too: per-stage
  // latency families are a pure function of the sim-time schedule, and
  // the timeline's windowed packet delta must match even though the
  // process-wide trafficgen counters keep absolute values across runs.
  const bool obs_deterministic =
      replay.stage_prom == zipf_churn.stage_prom &&
      replay.timeline_packets_delta == zipf_churn.timeline_packets_delta;

  bench::print_kv("packets_total", total_packets);
  bench::print_kv("watched_tone_cells",
                  static_cast<double>(zipf_churn.watched_cells));
  bench::print_kv("emitted (zipf+churn)",
                  static_cast<double>(zipf_churn.emitted));
  bench::print_kv("detected (zipf+churn)",
                  static_cast<double>(zipf_churn.detected));
  bench::print_kv("attributed detections (zipf+churn)",
                  static_cast<double>(zipf_churn.attributed));
  bench::print_kv("stage capture p50 (zipf+churn)",
                  zipf_churn.capture_p50_ms, "ms");
  bench::print_kv("stage capture p99 (zipf+churn)",
                  zipf_churn.capture_p99_ms, "ms");
  bench::print_kv("stage ring_wait p99 (zipf+churn)",
                  zipf_churn.ring_wait_p99_ms, "ms");
  bench::print_kv("timeline packet delta (zipf+churn)",
                  zipf_churn.timeline_packets_delta);
  const std::pair<const char*, const obs::HistogramSnapshot*> walls[] = {
      {"record", &zipf_churn.record_wall},
      {"detect", &zipf_churn.detect_wall},
      {"trafficgen batch", &zipf_churn.batch_wall}};
  for (const auto& [stage, hist] : walls) {
    bench::print_kv(std::string("wall ") + stage + " p50 (zipf+churn)",
                    hist->quantile(0.5) / 1e3, "us");
    bench::print_kv(std::string("wall ") + stage + " total (zipf+churn)",
                    hist->sum / 1e6, "ms");
  }
  bench::events_per_sec("packet", total_packets, total_wall);
  bench::events_per_sec("loop", total_loop_events, total_wall);

  const double expected =
      p.rate_pps * p.duration_s * static_cast<double>(p.skews.size()) * 2.0;
  const bool load_ok = total_packets >= 0.9 * expected;
  const bool heard = zipf_churn.recall > 0.2 && zipf_churn.detected > 0;
  const bool hh_separates = zipf_quiet.hh_alerts > uniform_quiet.hh_alerts;
  const bool scans_seen = zipf_churn.ps_alerts >= 1;
  // Every attributed detection carries exactly one capture hop and one
  // ring-wait hop (the inline path's chain is emitted->ingested->
  // detected), and capture — the whole tone-to-block-end span — must
  // agree with the scoreboard's end-to-end latency.  The two histograms
  // bucket in different units, so compare quantiles with slack.
  const bool stages_cover =
      zipf_churn.attributed > 0 &&
      zipf_churn.capture_count == zipf_churn.attributed &&
      zipf_churn.ring_wait_count == zipf_churn.attributed;
  const bool stages_match_scoreboard =
      zipf_churn.latency_p50_ms > 0.0 &&
      std::abs(zipf_churn.capture_p50_ms - zipf_churn.latency_p50_ms) <=
          0.35 * zipf_churn.latency_p50_ms;

  bench::print_claim(
      "traffic engine delivered the configured aggregate packet load",
      load_ok);
  bench::print_claim(
      "same seed reproduces a byte-identical flow trace and scoreboard",
      deterministic);
  bench::print_claim(
      "zipf skew raises heavy-hitter alerts over the uniform workload",
      hh_separates);
  bench::print_claim("port scans detected at the targeted switches",
                     scans_seen);
  bench::print_claim(
      "fleet microphones hear the tone workload (recall above floor)",
      heard);
  bench::print_claim(
      "latency attribution decomposes every tagged detection into "
      "capture + ring-wait stages",
      stages_cover);
  bench::print_claim(
      "capture-stage p50 agrees with the scoreboard's end-to-end latency",
      stages_match_scoreboard);
  bench::print_claim(
      "stage histograms and timeline packet delta replay deterministically",
      obs_deterministic);
  if (!smoke) {
    bench::print_claim(
        "fleet scale: >=100 switches, >=64K flows, >=1000 watched cells",
        zipf_churn.switches >= 100 && p.flows >= 65536 &&
            zipf_churn.watched_cells >= 1000);
  }

  // The sampled time series from the gated zipf+churn run rides along
  // as a CI artifact (fleet_traffic.timeline.jsonl, next to the report).
  if (obs::write_file("fleet_traffic.timeline.jsonl",
                      zipf_churn.timeline_jsonl)) {
    std::printf("wrote fleet_traffic.timeline.jsonl\n");
  }

  const bool ok = load_ok && deterministic && hh_separates && scans_seen &&
                  heard && stages_cover && stages_match_scoreboard &&
                  obs_deterministic;
  return ok ? 0 : 1;
}
