// Fleet integration: acoustic rooms of switches driven by the workload
// engine, with the journal scoreboard attributing per-room (mic-scoped)
// precision/recall and the whole pipeline replaying deterministically.
#include "mdn/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/traffic_gen.h"
#include "obs/journal.h"
#include "obs/scoreboard.h"

namespace mdn::core {
namespace {

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.rooms = 2;
  cfg.switches_per_room = 2;
  cfg.emitter_min_gap = 50 * net::kMillisecond;
  return cfg;
}

TEST(Fleet, TopologyInvariants) {
  net::EventLoop loop;
  Fleet fleet(loop, small_fleet());
  EXPECT_EQ(fleet.room_count(), 2u);
  EXPECT_EQ(fleet.switch_count(), 4u);
  EXPECT_EQ(fleet.room_of(0), 0u);
  EXPECT_EQ(fleet.room_of(1), 0u);
  EXPECT_EQ(fleet.room_of(2), 1u);
  EXPECT_EQ(fleet.room_of(3), 1u);
  // hh + ps bins per switch, summed over the fleet.
  EXPECT_EQ(fleet.watched_tone_count(), 4u * (16u + 16u));
  // Rooms reuse the same frequency plan layout, so the deduped union is
  // one room's worth of tones, sorted ascending.
  const auto hz = fleet.watch_hz();
  EXPECT_EQ(hz.size(), 2u * (16u + 16u));
  EXPECT_TRUE(std::is_sorted(hz.begin(), hz.end()));
  EXPECT_TRUE(std::adjacent_find(hz.begin(), hz.end()) == hz.end());
}

struct FleetRun {
  std::uint64_t digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t onsets = 0;
  obs::Scoreboard::Cell mic0, mic1, grand;
  std::string board;
};

FleetRun run_small_fleet(double skew) {
  obs::Journal::global().enable(1u << 16);
  obs::Journal::global().clear();

  net::EventLoop loop;
  Fleet fleet(loop, small_fleet());

  net::TrafficGenConfig tcfg;
  tcfg.population.total_flows = 512;
  tcfg.population.zipf_skew = skew;
  tcfg.rate_pps = 2000.0;
  tcfg.churn_fpm = 600.0;
  tcfg.stop = net::from_seconds(1.5);
  tcfg.seed = 7;
  net::TrafficGen gen(loop, tcfg);
  for (std::size_t s = 0; s < fleet.switch_count(); ++s) {
    gen.add_target(fleet.switch_at(s));
  }

  fleet.start();
  gen.start();
  fleet.stop_at(net::from_seconds(1.65));
  loop.run();

  obs::ScoreboardConfig scfg;
  scfg.watch_hz = fleet.watch_hz();
  scfg.tolerance_hz = 10.0;
  scfg.mics = fleet.room_count();
  const auto board = obs::Scoreboard::build(obs::Journal::global(), scfg);

  FleetRun r;
  r.digest = gen.trace_digest();
  r.packets = gen.packets();
  r.onsets = fleet.onsets_heard();
  r.mic0 = board.totals(0);
  r.mic1 = board.totals(1);
  r.grand = board.grand_totals();
  r.board = board.render();
  return r;
}

TEST(Fleet, HearsTheWorkloadInEveryRoom) {
  const FleetRun r = run_small_fleet(1.26);
  EXPECT_EQ(r.packets, 3000u);
  EXPECT_GT(r.onsets, 0u);
  EXPECT_GT(r.mic0.detected, 0u) << "room 0 mic hears its switches";
  EXPECT_GT(r.mic1.detected, 0u) << "room 1 mic hears its switches";
  EXPECT_GT(r.grand.recall(), 0.2);
}

TEST(Fleet, ScoreboardIsMicScoped) {
  // Rooms reuse the same tone frequencies; without mic-scoped emissions
  // every room-0 tone would also count as a room-1 miss and recall would
  // collapse.  Scoped, each room's emitted count covers only its own
  // switches and the grand total is their sum.
  const FleetRun r = run_small_fleet(0.0);
  EXPECT_GT(r.mic0.emitted, 0u);
  EXPECT_GT(r.mic1.emitted, 0u);
  EXPECT_EQ(r.grand.emitted, r.mic0.emitted + r.mic1.emitted);
  EXPECT_EQ(r.grand.detected, r.mic0.detected + r.mic1.detected);
  // Both rooms carry real workload: neither side dominates entirely.
  EXPECT_GT(r.mic0.recall(), 0.2);
  EXPECT_GT(r.mic1.recall(), 0.2);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Values recorded from run_small_fleet(1.26) before the per-packet and
// per-tone path was optimised: speedups must not move a single packet,
// tone or detection.  A change that means to alter the workload or the
// detector re-records them and says so.
constexpr std::uint64_t kGoldenTraceDigest = 1425807459965294297ULL;
constexpr std::uint64_t kGoldenBoardDigest = 1695716449187891270ULL;

TEST(Fleet, MatchesPinnedGoldenDigests) {
  const FleetRun r = run_small_fleet(1.26);
  EXPECT_EQ(r.digest, kGoldenTraceDigest);
  EXPECT_EQ(fnv1a(r.board), kGoldenBoardDigest) << r.board;
}

TEST(Fleet, ReplaysByteIdentically) {
  const FleetRun a = run_small_fleet(1.26);
  const FleetRun b = run_small_fleet(1.26);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.onsets, b.onsets);
  EXPECT_EQ(a.board, b.board) << "scoreboard render must be byte-identical";
}

}  // namespace
}  // namespace mdn::core
