#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/export.h"

namespace mdn::obs {
namespace {

std::int64_t fake_clock() { return 42; }

TEST(TracerTest, DisabledByDefaultAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  const auto track = t.track("net/loop");
  t.instant("onset", track, 1000);
  { Span span(nullptr, &t, "work", track, 2000); }
  EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, TrackRegistrationIsIdempotent) {
  Tracer t;
  EXPECT_EQ(t.track("a"), 0u);
  EXPECT_EQ(t.track("b"), 1u);
  EXPECT_EQ(t.track("a"), 0u);
  ASSERT_EQ(t.track_names().size(), 2u);
}

TEST(TracerTest, RecordsInstantAndCompleteEvents) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&fake_clock);
  const auto track = t.track("mdn/controller");
  t.instant("onset", track, 5000);
  t.complete("detect", track, 6000, 100, 2500);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].phase, 'i');
  EXPECT_EQ(t.events()[0].sim_ns, 5000);
  EXPECT_EQ(t.events()[0].wall_ns, 42);
  EXPECT_EQ(t.events()[1].phase, 'X');
  EXPECT_EQ(t.events()[1].wall_dur_ns, 2500);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, SpanUsesInjectedClock) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&fake_clock);
  const auto track = t.track("x");
  { Span span(nullptr, &t, "work", track, 7000); }
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].name, "work");
  EXPECT_EQ(t.events()[0].sim_ns, 7000);
  EXPECT_EQ(t.events()[0].wall_dur_ns, 0);  // frozen clock
}

TEST(TracerTest, NullTracerSpanIsANoop) {
  Span span(nullptr, nullptr, "nothing", 0, 0);  // must not crash
}

// A clock that advances 1000 ns per read, so the span's reads are
// countable: one at each end.
std::int64_t stepping_ns = 0;
std::int64_t stepping_clock() { return stepping_ns += 1000; }

TEST(TracerTest, SpanSplitsABatchIntoHistogramSamples) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&stepping_clock);
  stepping_ns = 0;
  const auto track = t.track("rt/worker");
  Histogram traced;
  { Span span(&traced, &t, "batch", track, 9000, 4); }
  // Two clock reads, 1000 ns apart: one trace event for the interval,
  // and four histogram samples of its mean.
  EXPECT_EQ(stepping_ns, 2000);
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].wall_ns, 1000);
  EXPECT_EQ(t.events()[0].wall_dur_ns, 1000);
  EXPECT_EQ(traced.count(), 4u);
  EXPECT_DOUBLE_EQ(traced.sum(), 1000.0);

  // A disabled or null tracer records nothing; the histogram still
  // receives its four samples.
  t.enable(false);
  Histogram untraced;
  { Span span(&untraced, &t, "batch", track, 9000, 4); }
  { Span span(&untraced, nullptr, "batch", track, 9000, 4); }
  EXPECT_EQ(t.events().size(), 1u);
  EXPECT_EQ(stepping_ns, 2000);  // the tracer's clock was not read
  EXPECT_EQ(untraced.count(), 8u);
}

// Golden test: the exact Chrome trace_event JSON for a fixed event
// sequence with an injected wall clock.
TEST(TracerTest, ChromeTraceGolden) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&fake_clock);
  const auto loop = t.track("net/loop");
  const auto ctl = t.track("mdn/controller");
  t.complete("event", loop, 1500, 100, 2500);
  t.instant("onset", ctl, 2000);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"net/loop\"}},"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"mdn/controller\"}},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"event\",\"ts\":1.500,"
      "\"dur\":2.500,\"args\":{\"sim_ns\":1500,\"wall_ns\":100}},"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"name\":\"onset\",\"ts\":2.000,"
      "\"s\":\"t\",\"args\":{\"sim_ns\":2000,\"wall_ns\":42}}"
      "]}";
  EXPECT_EQ(to_chrome_trace(t), expected);
}

}  // namespace
}  // namespace mdn::obs
