// fleet-zipf: core::Fleet (8 rooms x 13 switches) under net::TrafficGen
// Zipf-1.26 traffic with churn and port scanners, journal on, one thread.
#include "bench.h"
#include "mdn/fleet.h"
#include "net/traffic_gen.h"
#include "obs/journal.h"
#include "obs/scoreboard.h"

namespace perfbench {
namespace {

using namespace mdn;

constexpr std::size_t kRooms = 8;
constexpr std::size_t kSwitchesPerRoom = 13;
constexpr std::size_t kFlows = 65536;
constexpr double kZipf = 1.26;
constexpr double kChurnFpm = 6000.0;
constexpr double kRatePps = 50000.0;
constexpr std::size_t kScanners = 4;
constexpr double kScanPps = 600.0;
// 102 timed hops: enough for ten beyond p90 of the per-position times.
constexpr double kTrafficS = 5.2;   // packets flow over [0, 5.2 s)
constexpr double kListenS = 5.35;   // listeners hear in-flight tones
constexpr double kWarmupS = 0.25;   // set-up runs the loop this far
constexpr std::size_t kJournalCapacity = std::size_t{1} << 18;

class FleetZipf final : public Workload {
 public:
  void generate(std::uint64_t seed) override { seed_ = seed; }

  Episode run_episode(SpanLog& spans) override {
    Episode ep;
    obs::Registry::global().reset();
    obs::Journal& journal = obs::Journal::global();

    const auto setup_start = Clock::now();
    Timed t_journal(spans, "obs::Journal::enable");
    journal.enable(kJournalCapacity);
    t_journal.stop();

    Timed t_build(spans, "build fleet + TrafficGen");
    net::EventLoop loop;
    core::FleetConfig fcfg;
    fcfg.rooms = kRooms;
    fcfg.switches_per_room = kSwitchesPerRoom;
    fcfg.emitter_min_gap = 50 * net::kMillisecond;
    fcfg.hh.window_s = 2.0;
    fcfg.hh.threshold = 6;
    core::Fleet fleet(loop, fcfg);

    net::TrafficGenConfig tcfg;
    tcfg.population.total_flows = kFlows;
    tcfg.population.zipf_skew = kZipf;
    tcfg.rate_pps = kRatePps;
    tcfg.churn_fpm = kChurnFpm;
    tcfg.stop = net::from_seconds(kTrafficS);
    tcfg.seed = seed_;
    tcfg.scan_count = kScanners;
    tcfg.scan_pps = kScanPps;
    net::TrafficGen gen(loop, tcfg);
    for (std::size_t s = 0; s < fleet.switch_count(); ++s) {
      gen.add_target(fleet.switch_at(s));
    }
    t_build.stop();

    Timed t_start(spans, "Fleet::start + TrafficGen::start");
    fleet.start();
    gen.start();
    fleet.stop_at(net::from_seconds(kListenS));
    t_start.stop();

    Timed t_warm(spans, "EventLoop::run_until (warm-up)");
    const net::SimTime warm_end = net::from_seconds(kWarmupS);
    loop.run_until(warm_end);
    t_warm.stop();
    ep.setup_s = elapsed_s(setup_start, Clock::now());

    // Timed phase: 50 ms run_until slices up to the listeners' stop.
    const net::SimTime hop = net::from_seconds(kHopS);
    const auto hops = static_cast<std::size_t>(
        (net::from_seconds(kListenS) - warm_end + hop - 1) / hop);
    run_loop_hops(ep, spans, loop, warm_end, hops);

    // Drain (untimed), then score the journal.
    loop.run();
    Timed t_board(spans, "obs::Scoreboard::build");
    obs::ScoreboardConfig scfg;
    scfg.watch_hz = fleet.watch_hz();
    scfg.tolerance_hz = 10.0;
    scfg.mics = fleet.room_count();
    const auto board = obs::Scoreboard::build(journal, scfg);
    t_board.stop();
    event_loop_outputs(ep, board, journal);
    ep.digests["trace"] = gen.trace_digest();
    ep.layer["net.packets"] = static_cast<double>(gen.packets());

    const auto g = board.grand_totals();
    ep.check(gen.packets() >= static_cast<std::uint64_t>(
                                  0.9 * kRatePps * kTrafficS),
             "TrafficGen delivered under 90% of the configured load");
    ep.check(g.emitted > 0 && g.detected > 0,
             "fleet microphones heard no tones");
    ep.check(gen.scan_packets() > 0, "scanners sent no packets");
    journal.disable();
    return ep;
  }

 private:
  std::uint64_t seed_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_zipf() {
  return std::make_unique<FleetZipf>();
}

}  // namespace perfbench
