// lb-soak: the §6 load balancer on the rhombus topology, soaked for a
// long simulated run.  Real links and queues (every packet is its own
// event), a QueueToneReporter singing the entry queue's band every
// 300 ms, QueueMonitorApp and LoadBalancerApp listening, looping
// machine-room and song beds, journal and obs::Health on.  On/off
// bursts exceed even the split capacity, so the queue keeps cycling
// through all three bands after the one balancing FlowMod.
#include <array>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include "audio/fan.h"
#include "audio/song.h"
#include "bench.h"
#include "mdn/controller.h"
#include "mdn/frequency_plan.h"
#include "mdn/traffic_engineering.h"
#include "mp/bridge.h"
#include "net/network.h"
#include "net/traffic.h"
#include "obs/health.h"
#include "obs/journal.h"
#include "obs/scoreboard.h"
#include "sdn/controller.h"

namespace perfbench {
namespace {

using namespace mdn;

constexpr double kSampleRate = 48000.0;
constexpr double kDurationS = 120.0;  // simulated soak length
constexpr double kWarmupS = 0.5;
constexpr double kRoomBedS = 6.0;    // looping ambient beds
constexpr double kSongBedS = 8.0;

struct Inputs {
  std::uint64_t traffic_seed = 0;
  std::uint64_t room_seed = 0;
  std::uint64_t song_seed = 0;
  std::uint64_t mic_seed = 0;
  /// The switch samples its queue every 300 ms of *its* clock, which
  /// runs this many ppm slow against the listener's; tone onsets so
  /// sweep every phase of the 50 ms listening block over the soak.
  double clock_drift_ppm = 0.0;
};

class LbSoak final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    std::mt19937_64 rng(seed);
    in_.traffic_seed = rng();
    in_.room_seed = rng();
    in_.song_seed = rng();
    in_.mic_seed = rng();
    in_.clock_drift_ppm =
        450.0 + 200.0 * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  }

  Episode run_episode(SpanLog& spans) override {
    Episode ep;
    obs::Registry::global().reset();
    obs::Journal& journal = obs::Journal::global();

    const auto setup_start = Clock::now();
    Timed t_journal(spans, "obs::Journal::enable");
    journal.enable(std::size_t{1} << 16);
    t_journal.stop();

    Timed t_beds(spans, "ambient bed synthesis");
    audio::AcousticChannel channel(kSampleRate);
    channel.add_ambient(audio::generate_machine_room(
        6, kRoomBedS, kSampleRate, 0.02, in_.room_seed));
    audio::SongConfig song;
    song.seed = in_.song_seed;
    song.amplitude = 0.05;
    channel.add_ambient(audio::generate_song(kSongBedS, kSampleRate, song));
    t_beds.stop();

    Timed t_build(spans, "build rhombus + apps");
    net::Network net;
    net::LinkSpec core_link;
    core_link.rate_bps = 8e6;  // 1000 pps of 1000 B packets per path
    core_link.queue_capacity = 150;
    auto topo = net::build_rhombus(net, core_link);
    net::FlowEntry single;
    single.priority = 10;
    single.actions = {net::Action::output(topo.entry_upper_port)};
    topo.entry->flow_table().add(single, 0);

    sdn::Controller null_controller;
    sdn::ControlChannel sdn_channel(net.loop(), net::kMillisecond);
    const auto dpid = sdn_channel.attach(*topo.entry, null_controller);

    core::FrequencyPlan plan({.base_hz = 500.0, .spacing_hz = 100.0});
    const auto dev = plan.add_device("s1", 3);
    const auto spk = channel.add_source("s1-speaker", 0.5);
    mp::PiSpeakerBridge bridge(net.loop(), channel, spk);
    mp::MpEmitter emitter(net.loop(), bridge, 0);

    obs::HealthConfig hcfg;
    hcfg.watch_count = 4;  // the balancer's watch + the monitor's three
    obs::Health health(hcfg);
    health.add_mic("s1-mic");
    health.add_slo({.name = "noise_floor_high",
                    .metric = obs::SloSpec::Metric::kNoiseFloor,
                    .op = obs::SloSpec::Op::kAbove,
                    .threshold = 2e-3,
                    .for_s = 1.0,
                    .severity = obs::HealthState::kDegraded});
    health.add_slo({.name = "mic_silent",
                    .metric = obs::SloSpec::Metric::kSilenceS,
                    .op = obs::SloSpec::Op::kAbove,
                    .threshold = 2.0,
                    .for_s = 0.0,
                    .severity = obs::HealthState::kFailed});

    core::MdnController::Config ccfg;
    ccfg.detector.sample_rate = kSampleRate;
    // The floor sits ~12 dB under the reporter's tones: the song's own
    // notes at the plan frequencies stay interference, not detections.
    ccfg.detector.min_amplitude = 0.03;
    ccfg.microphone.seed = in_.mic_seed;
    ccfg.health = &health;
    core::MdnController controller(net.loop(), channel, ccfg);

    core::QueueToneConfig qcfg;
    qcfg.port_index = topo.entry_upper_port;
    qcfg.period = static_cast<net::SimTime>(
        std::llround(300e6 * (1.0 + in_.clock_drift_ppm * 1e-6)));
    core::QueueToneReporter reporter(*topo.entry, emitter, plan, dev, qcfg);
    core::LoadBalancerConfig lbcfg;
    lbcfg.split_ports = {topo.entry_upper_port, topo.entry_lower_port};
    core::LoadBalancerApp balancer(controller, sdn_channel, dpid, plan, dev,
                                   lbcfg);
    core::QueueMonitorApp monitor(controller, plan, dev);

    net::SourceConfig scfg;
    scfg.flow = {topo.src->ip(), topo.dst->ip(), 40000, 80,
                 net::IpProto::kTcp};
    scfg.stop = net::from_seconds(kDurationS);
    net::OnOffSource bursts(*topo.src, scfg, 2600.0,
                            800 * net::kMillisecond,
                            1600 * net::kMillisecond, in_.traffic_seed);
    net::SourceConfig bcfg = scfg;
    bcfg.flow.src_port = 40001;
    net::CbrSource background(*topo.src, bcfg, 400.0);
    t_build.stop();

    Timed t_start(spans, "start reporter, controller, sources");
    reporter.start();
    controller.start();
    bursts.start();
    background.start();
    net.loop().schedule_at(net::from_seconds(kDurationS), [&] {
      controller.stop();
      reporter.stop();
    });
    t_start.stop();

    Timed t_warm(spans, "EventLoop::run_until (warm-up)");
    const net::SimTime warm_end = net::from_seconds(kWarmupS);
    net.loop().run_until(warm_end);
    health.poll();
    t_warm.stop();
    ep.setup_s = elapsed_s(setup_start, Clock::now());

    const net::SimTime hop = net::from_seconds(kHopS);
    const auto hops = static_cast<std::size_t>(
        (net::from_seconds(kDurationS) - warm_end) / hop);
    run_loop_hops(ep, spans, net.loop(), warm_end, hops,
                  [&health] { health.poll(); });

    net.loop().run();
    health.poll();
    Timed t_board(spans, "obs::Scoreboard::build");
    obs::ScoreboardConfig board_cfg;
    for (std::size_t band = 0; band < 3; ++band) {
      board_cfg.watch_hz.push_back(plan.frequency(dev, band));
    }
    const auto board = obs::Scoreboard::build(journal, board_cfg);
    t_board.stop();
    event_loop_outputs(ep, board, journal);
    ep.layer["net.packets"] =
        static_cast<double>(bursts.sent() + background.sent());
    ep.layer["obs.health_alerts"] =
        static_cast<double>(health.alerts().size());

    std::uint64_t trace = 0xcbf29ce484222325ull;
    std::array<bool, 3> bands_after_split{};
    for (const auto& s : reporter.samples()) {
      char buf[64];
      const int n = std::snprintf(buf, sizeof(buf), "%.9f %zu %zu\n",
                                  s.time_s, s.backlog, s.band);
      trace = fnv1a(std::string_view(buf, static_cast<std::size_t>(n)), trace);
      if (balancer.balanced() && s.time_s > balancer.balanced_at_s()) {
        bands_after_split[s.band] = true;
      }
    }
    ep.digests["trace"] = trace;

    // The one balancing FlowMod must explain back to a congested tone.
    const auto chain = journal.explain(balancer.flow_mod_action());
    const double congested_hz = plan.frequency(dev, 2);
    ep.check(balancer.balanced() && ep.layer["sdn.flow_mods"] == 1.0,
             "load balancer did not send exactly one split FlowMod");
    ep.check(!chain.empty() &&
                 chain.front().kind == obs::JournalKind::kToneEmitted &&
                 std::abs(chain.front().frequency_hz - congested_hz) < 1.0 &&
                 chain.back().kind == obs::JournalKind::kFlowMod,
             "split FlowMod does not explain back to a congested-band tone");
    ep.check(bands_after_split[0] && bands_after_split[1] &&
                 bands_after_split[2],
             "queue did not cycle through all three bands after the split");
    journal.disable();
    return ep;
  }

 private:
  Inputs in_;
};

}  // namespace

std::unique_ptr<Workload> make_lb_soak() {
  return std::make_unique<LbSoak>();
}

}  // namespace perfbench
