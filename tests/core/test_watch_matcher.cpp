// core::match_watches on hand-built tone and tag lists: the inclusive
// tolerance edge, best-amplitude selection, the onset latch, cause
// resolution from the first in-tolerance tag, and the hook's minted id
// replacing the health evidence.
#include "mdn/watch_matcher.h"

#include <gtest/gtest.h>

#include <vector>

namespace mdn::core {
namespace {

constexpr double kTolerance = 10.0;

/// Runs one block through the matcher, collecting the onsets.
std::vector<WatchOnset> match(std::span<const double> watch_hz,
                              std::span<const DetectedTone> tones,
                              std::vector<char>& latch,
                              std::span<const audio::EmissionTag> tags = {},
                              obs::MicSignalEstimator* est = nullptr,
                              obs::CauseId minted = 0) {
  std::vector<WatchOnset> onsets;
  const std::size_t n = match_watches(watch_hz, tones, tags, kTolerance,
                                      latch, est,
                                      [&](const WatchOnset& onset) {
                                        onsets.push_back(onset);
                                        return minted;
                                      });
  EXPECT_EQ(n, onsets.size());
  return onsets;
}

TEST(WatchMatcher, ToleranceEdgeIsInclusive) {
  const std::vector<double> watch = {1000.0, 2000.0};
  std::vector<char> latch(watch.size(), 0);
  // Exactly +tolerance from watch 0, exactly -tolerance from watch 1.
  const std::vector<DetectedTone> on_edge = {{1010.0, 0.5}, {1990.0, 0.4}};
  const auto onsets = match(watch, on_edge, latch);
  ASSERT_EQ(onsets.size(), 2u);
  EXPECT_EQ(onsets[0].watch, 0u);
  EXPECT_EQ(onsets[1].watch, 1u);

  std::vector<char> fresh(watch.size(), 0);
  const std::vector<DetectedTone> outside = {{1010.5, 0.5}, {1989.5, 0.4}};
  EXPECT_TRUE(match(watch, outside, fresh).empty());
  EXPECT_EQ(fresh[0], 0);
  EXPECT_EQ(fresh[1], 0);
}

TEST(WatchMatcher, StrongestInTolerancePeakWins) {
  const std::vector<double> watch = {1000.0};
  std::vector<char> latch(1, 0);
  const std::vector<DetectedTone> tones = {
      {1002.0, 0.1}, {998.0, 0.3}, {1005.0, 0.2}, {1200.0, 0.9}};
  const auto onsets = match(watch, tones, latch);
  ASSERT_EQ(onsets.size(), 1u);
  EXPECT_DOUBLE_EQ(onsets[0].amplitude, 0.3);
  EXPECT_DOUBLE_EQ(onsets[0].frequency_hz, 1000.0);
}

TEST(WatchMatcher, LatchHoldsThenRearmsAfterAnAbsentBlock) {
  const std::vector<double> watch = {1000.0};
  std::vector<char> latch(1, 0);
  const std::vector<DetectedTone> present = {{1000.0, 0.5}};
  const std::vector<DetectedTone> absent;
  EXPECT_EQ(match(watch, present, latch).size(), 1u);  // rising edge
  EXPECT_EQ(latch[0], 1);
  EXPECT_TRUE(match(watch, present, latch).empty());  // held
  EXPECT_TRUE(match(watch, present, latch).empty());
  EXPECT_TRUE(match(watch, absent, latch).empty());  // falls
  EXPECT_EQ(latch[0], 0);
  EXPECT_EQ(match(watch, present, latch).size(), 1u);  // re-armed
}

TEST(WatchMatcher, FirstInToleranceTagSuppliesTheCause) {
  const std::vector<double> watch = {1000.0};
  const std::vector<DetectedTone> tones = {{1000.0, 0.5}};
  const std::vector<audio::EmissionTag> tags = {
      {5, 1200.0}, {7, 1004.0}, {9, 1000.0}};
  std::vector<char> latch(1, 0);
  const auto onsets = match(watch, tones, latch, tags);
  ASSERT_EQ(onsets.size(), 1u);
  EXPECT_EQ(onsets[0].cause, 7u);

  const std::vector<audio::EmissionTag> unrelated = {{5, 1200.0}};
  std::vector<char> fresh(1, 0);
  const auto untagged = match(watch, tones, fresh, unrelated);
  ASSERT_EQ(untagged.size(), 1u);
  EXPECT_EQ(untagged[0].cause, 0u);
}

// The evidence handed to observe_watch surfaces as the alert's evidence
// when an immediate rule fires at the end of the block.
obs::CauseId evidence_after_onset(obs::CauseId minted) {
  obs::HealthConfig config;
  config.watch_count = 1;
  obs::Health health(config);
  obs::SloSpec rule;
  rule.name = "noise_floor_high";
  rule.metric = obs::SloSpec::Metric::kNoiseFloor;
  rule.op = obs::SloSpec::Op::kAbove;
  rule.threshold = 0.5;
  health.add_slo(rule);
  obs::MicSignalEstimator& est = health.estimator(health.add_mic("m0"));

  const std::vector<double> watch = {1000.0};
  const std::vector<DetectedTone> tones = {{1000.0, 0.5}};
  const std::vector<audio::EmissionTag> tags = {{7, 1000.0}};
  std::vector<char> latch(1, 0);
  obs::BlockSignalStats stats;
  stats.noise_floor = 1.0;
  est.begin_block(0.05, stats);
  EXPECT_EQ(match(watch, tones, latch, tags, &est, minted).size(), 1u);
  est.end_block();
  EXPECT_EQ(health.poll(), 1u);
  return health.alerts().empty() ? 0 : health.alerts().back().evidence;
}

TEST(WatchMatcher, HookIdReplacesTheHealthEvidence) {
  EXPECT_EQ(evidence_after_onset(42), 42u);  // the minted onset record
  EXPECT_EQ(evidence_after_onset(0), 7u);    // no record: the tag stays
}

}  // namespace
}  // namespace mdn::core
