// mdn_perfbench: runs one benchmark workload for a wall budget and prints
// its metrics.  Normally invoked through perfbench/run.py, which builds
// this binary; see perfbench/README.md for the metric definitions.
//
// usage: mdn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-out PATH]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status is 0 only when every output check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"realtime_factor", "sim_s/wall_s"},
    {"hop_wall_p50_ms", "ms"},
    {"hop_wall_p90_ms", "ms"},
    {"recall", "ratio"},
    {"precision", "ratio"},
    {"tone_latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.loop_events", "count"},
    {"net.loop_overhead_share", "ratio"},
    {"net.unattributed_share", "ratio"},
    {"net.packets", "count"},
    {"mp.tones_played", "count"},
    {"mp.suppressed_ratio", "ratio"},
    {"audio.record_share", "ratio"},
    {"audio.record_p50_us", "us"},
    {"audio.record_p90_us", "us"},
    {"audio.record_growth", "ratio"},
    {"audio.rss_growth_mb", "MB"},
    {"mdn.detect_share", "ratio"},
    {"mdn.detect_p50_us", "us"},
    {"mdn.match_share", "ratio"},
    {"dsp.fft_p50_us", "us"},
    {"mdn.blocks", "count"},
    {"mdn.onsets", "count"},
    {"mdn.action_latency_p50_ms", "ms"},
    {"rt.submit_p50_us", "us"},
    {"rt.submit_p90_us", "us"},
    {"rt.submit_share", "ratio"},
    {"rt.poll_share", "ratio"},
    {"rt.worker_busy_share", "ratio"},
    {"rt.block_wall_p50_us", "us"},
    {"rt.queue_depth_p50", "blocks"},
    {"rt.drops", "count"},
    {"rt.parallel_efficiency", "ratio"},
    {"sdn.flow_mods", "count"},
    {"sdn.failed_sends", "count"},
    {"obs.journal_records", "count"},
    {"obs.health_alerts", "count"},
    {"layer_share_sum", "ratio"},
    {"trace_overhead", "ratio"},
};

// Runs always stop once this much wall time has passed, whatever the
// budget, so a run ends well inside its time limit on a slow host.
constexpr double kHardCapS = 100.0;

int usage() {
  std::fprintf(stderr,
               "usage: mdn_perfbench --workload fleet-zipf|mic-stream|lb-soak "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

// Host contention only ever adds time and comes and goes within seconds,
// so timings keep the fastest measurements a run saw; a slower program
// slows every episode and still shows.  Where every hop is fixed work
// (the event-loop workloads replay the same hops each episode), that is
// the fastest time at each hop position over the run's episodes.  In a
// closed loop a hop's wall is the wait for worker throughput, which
// shifts between hops, so only whole episodes compare: the faster half
// of them, by timed wall, with their hops pooled.
struct Timing {
  double realtime_factor = 0.0;
  std::vector<double> hop_ms;
};

Timing timing(const std::vector<Episode>& eps, bool fixed_work_hops) {
  Timing t;
  if (fixed_work_hops) {
    t.hop_ms = eps.front().hop_ms;
    for (const auto& ep : eps) {
      for (std::size_t k = 0; k < t.hop_ms.size(); ++k) {
        t.hop_ms[k] = std::min(t.hop_ms[k], ep.hop_ms[k]);
      }
    }
    double wall_ms = 0.0;
    for (double ms : t.hop_ms) wall_ms += ms;
    t.realtime_factor = eps.front().timed_sim_s / (wall_ms / 1e3);
    return t;
  }
  std::vector<const Episode*> kept;
  for (const auto& ep : eps) kept.push_back(&ep);
  std::sort(kept.begin(), kept.end(), [](const Episode* a, const Episode* b) {
    return a->timed_wall_s < b->timed_wall_s;
  });
  kept.resize((kept.size() + 1) / 2);
  std::vector<double> rtf;
  for (const Episode* ep : kept) {
    t.hop_ms.insert(t.hop_ms.end(), ep->hop_ms.begin(), ep->hop_ms.end());
    rtf.push_back(ep->timed_sim_s / ep->timed_wall_s);
  }
  t.realtime_factor = median(rtf);
  return t;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") == 0) trace = 0;
      else if (std::strcmp(val, "1") == 0) trace = 1;
      else return usage();
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> workload;
  if (workload_name == "fleet-zipf") workload = make_fleet_zipf();
  else if (workload_name == "mic-stream") workload = make_mic_stream();
  else if (workload_name == "lb-soak") workload = make_lb_soak();
  if (!workload || !have_seed || !(seconds > 0.0) || trace < 0) {
    return usage();
  }

  workload->generate(seed);
  // From here on the benchmark's own inputs are resident; peak_rss_mb is
  // the program's peak above them.  Input generation keeps its
  // temporaries small, so its own high-water mark stays below that peak.
  const double input_rss = rss_mb();
  const double generate_peak = peak_rss_mb();
  const double probe_before = host_probe_ms();

  // Episodes until the budget is spent.  A traced run alternates
  // untraced and traced episodes so trace_overhead compares like with
  // like; end-to-end metrics only ever come from untraced episodes.
  SpanLog spans;
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  const std::size_t min_untraced = trace ? 1 : 3;
  const std::size_t min_traced = trace ? 1 : 0;
  double peak_rss = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced_episode = trace && i % 2 == 1;
    spans.set_enabled(traced_episode);
    Episode ep = workload->run_episode(spans);
    spans.set_enabled(false);
    (traced_episode ? traced : untraced).push_back(std::move(ep));
    // The run's peak RSS is the high-water mark of its first episode:
    // later episodes reuse that heap, and how many of them fit in the
    // budget must not move the figure.
    if (i == 0) peak_rss = peak_rss_mb() - input_rss;
    const double elapsed = elapsed_s(start, Clock::now());
    const bool enough =
        untraced.size() >= min_untraced && traced.size() >= min_traced;
    if ((enough && elapsed >= seconds) || elapsed >= kHardCapS) break;
  }
  Episode extras;
  if (trace) {
    std::vector<double> walls;
    for (const auto& ep : traced) walls.push_back(ep.timed_wall_s);
    spans.set_enabled(true);
    workload->traced_extras(median(walls), extras, spans);
    spans.set_enabled(false);
  }
  const double probe_after = host_probe_ms();

  // Failure accounting and the run-level checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto absorb = [&](const Episode& ep) {
    attempted += ep.ops_attempted + ep.checks;
    failed += ep.ops_failed + ep.failed_checks.size();
    failures.insert(failures.end(), ep.failed_checks.begin(),
                    ep.failed_checks.end());
  };
  for (const auto& ep : untraced) absorb(ep);
  for (const auto& ep : traced) absorb(ep);
  absorb(extras);
  auto run_check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  };

  const Episode& first = untraced.front();
  bool deterministic = true;
  for (const auto* set : {&untraced, &traced}) {
    for (const auto& ep : *set) {
      deterministic = deterministic && ep.recall == first.recall &&
                      ep.precision == first.precision &&
                      ep.tone_latency_p50_ms == first.tone_latency_p50_ms &&
                      ep.digests == first.digests;
    }
  }
  run_check(deterministic,
            "episodes of one seed disagree on digests or quality metrics");

  bool same_hops = true;
  for (const auto& ep : untraced) {
    same_hops = same_hops && ep.hop_ms.size() == first.hop_ms.size();
  }
  run_check(same_hops, "episodes of one seed ran different hop counts");
  const bool fixed = workload->fixed_work_hops();
  const Timing untraced_timing = timing(untraced, fixed);
  const std::vector<double>& hops = untraced_timing.hop_ms;
  // setup_s: the median of the faster half of the set-ups.
  std::vector<double> setups;
  for (const auto& ep : untraced) setups.push_back(ep.setup_s);
  std::sort(setups.begin(), setups.end());
  setups.resize((setups.size() + 1) / 2);
  const double p90 = quantile(hops, 0.9);
  const std::size_t beyond_p90 = hops.size() / 10;
  if (!trace) {
    run_check(beyond_p90 >= 10, "fewer than 10 hops beyond p90");
  }

  std::vector<std::pair<const MetricDef*, double>> report;
  if (!trace) {
    const double values[] = {untraced_timing.realtime_factor,
                             quantile(hops, 0.5),
                             p90,
                             first.recall,
                             first.precision,
                             first.tone_latency_p50_ms,
                             peak_rss,
                             median(setups)};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      report.emplace_back(&kEndToEnd[i], values[i]);
    }
  } else {
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> v;
      for (const auto& ep : traced) {
        const auto it = ep.layer.find(m.name);
        v.push_back(it == ep.layer.end() ? 0.0 : it->second);
      }
      double value = median(v);
      if (std::strcmp(m.name, "trace_overhead") == 0) {
        value = 1.0 - timing(traced, fixed).realtime_factor /
                          untraced_timing.realtime_factor;
      } else if (extras.layer.count(m.name) != 0) {
        value = extras.layer.at(m.name);
      } else if (std::strcmp(m.name, "audio.rss_growth_mb") == 0) {
        // Later episodes reuse the heap the first one grew; only the
        // first episode of the process shows the growth.
        value = first.layer.at(m.name);
      }
      report.emplace_back(&m, value);
    }
    for (const auto& ep : traced) {
      const double sum = ep.layer.at("layer_share_sum");
      run_check(std::abs(sum - 1.0) <= 0.05,
                "layer shares do not sum to the timed wall within 5%");
    }
    if (!trace_out.empty()) {
      run_check(spans.write_chrome_trace(trace_out, workload_name),
                "could not write the Chrome trace");
    }
  }
  for (const auto& [def, value] : report) {
    run_check(std::isfinite(value),
              std::string("metric ") + def->name + " is not finite");
  }

  std::printf("workload=%s seed=%llu episodes=%zu untraced + %zu traced\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              untraced.size(), traced.size());
  std::printf("hops=%zu timed (%zu beyond p90) from %zu episodes of %zu\n",
              hops.size(), beyond_p90, untraced.size(),
              first.hop_ms.size());
  std::printf("episode realtime_factor:");
  for (const auto& ep : untraced) {
    std::printf(" %.4g", ep.timed_sim_s / ep.timed_wall_s);
  }
  std::printf("\n");
  std::printf("host_probe_ms before=%.3f after=%.3f\n", probe_before,
              probe_after);
  std::printf("rss_mb inputs=%.1f generation_peak=%.1f\n", input_rss,
              generate_peak);
  for (const auto& [name, value] : first.digests) {
    std::printf("digest %s=%016llx\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  if (trace && !trace_out.empty()) {
    std::printf("chrome trace: %s (%zu spans, %zu over capacity)\n",
                trace_out.c_str(), spans.size(), spans.dropped());
  }
  for (const auto& [def, value] : report) {
    std::printf("%-28s %16.6f %s\n", def->name, value, def->unit);
  }
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool comma = false;
  for (const auto& [def, value] : report) {
    if (comma) json += ", ";
    comma = true;
    json += "\"" + std::string(def->name) + "\": {\"value\": " +
            json_number(std::isfinite(value) ? value : 0.0) +
            ", \"unit\": \"" + def->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
