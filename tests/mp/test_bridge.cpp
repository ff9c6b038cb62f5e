#include "mp/bridge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "audio/synth.h"
#include "dsp/fft.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"

namespace mdn::mp {
namespace {

constexpr double kSampleRate = 48000.0;

struct BridgeFixture : ::testing::Test {
  BridgeFixture()
      : channel(kSampleRate),
        source(channel.add_source("pi", 1.0)),
        bridge(loop, channel, source, /*processing_delay=*/0) {}

  double tone_amplitude_at(double freq, double start_s, double dur_s) {
    const auto w = channel.render(start_s, dur_s);
    const auto window = dsp::make_window(dsp::WindowKind::kHann, w.size());
    const auto spec = dsp::amplitude_spectrum(w.samples(), window);
    const auto bin = dsp::frequency_bin(freq, w.size(), kSampleRate);
    double best = 0.0;
    for (std::size_t k = bin >= 2 ? bin - 2 : 0;
         k <= bin + 2 && k < spec.size(); ++k) {
      best = std::max(best, spec[k]);
    }
    return best;
  }

  net::EventLoop loop;
  audio::AcousticChannel channel;
  audio::SourceId source;
  PiSpeakerBridge bridge;
};

TEST_F(BridgeFixture, PlayEmitsToneAtRequestedFrequency) {
  MpMessage msg;
  msg.frequency_hz = 880.0;
  msg.duration_s = 0.1;
  msg.intensity_db_spl = 94.0;  // amplitude 1.0 at 1 m
  bridge.play(msg);
  EXPECT_EQ(bridge.played(), 1u);
  EXPECT_NEAR(tone_amplitude_at(880.0, 0.0, 0.1), 1.0, 0.1);
  EXPECT_LT(tone_amplitude_at(2000.0, 0.0, 0.1), 0.01);
}

TEST_F(BridgeFixture, IntensityControlsAmplitude) {
  MpMessage quiet;
  quiet.frequency_hz = 700.0;
  quiet.duration_s = 0.1;
  quiet.intensity_db_spl = 74.0;  // 20 dB below reference -> 0.1
  bridge.play(quiet);
  EXPECT_NEAR(tone_amplitude_at(700.0, 0.0, 0.1), 0.1, 0.02);
}

TEST_F(BridgeFixture, ProcessingDelayShiftsTone) {
  PiSpeakerBridge slow(loop, channel, source,
                       /*processing_delay=*/50 * net::kMillisecond);
  MpMessage msg;
  msg.frequency_hz = 600.0;
  msg.duration_s = 0.04;
  msg.intensity_db_spl = 94.0;
  slow.play(msg);
  // Nothing during the Pi's processing window...
  EXPECT_LT(tone_amplitude_at(600.0, 0.0, 0.04), 0.01);
  // ...tone appears afterwards.
  EXPECT_GT(tone_amplitude_at(600.0, 0.05, 0.04), 0.5);
}

TEST_F(BridgeFixture, WirePathRoundTrips) {
  MpMessage msg;
  msg.frequency_hz = 1234.0;
  msg.duration_s = 0.05;
  msg.intensity_db_spl = 94.0;
  bridge.on_wire(marshal(msg));
  EXPECT_EQ(bridge.played(), 1u);
  EXPECT_EQ(bridge.malformed(), 0u);
  EXPECT_GT(tone_amplitude_at(1234.0, 0.0, 0.05), 0.5);
}

TEST_F(BridgeFixture, MalformedWireCountedAndIgnored) {
  auto wire = marshal(MpMessage{});
  wire[6] ^= 0xff;  // corrupt frequency -> checksum fails
  bridge.on_wire(wire);
  EXPECT_EQ(bridge.played(), 0u);
  EXPECT_EQ(bridge.malformed(), 1u);
  EXPECT_EQ(bridge.last_error(), MpError::kBadChecksum);
}

TEST_F(BridgeFixture, EmitterMarshalsThroughBridge) {
  MpEmitter emitter(loop, bridge, /*min_gap=*/0);
  EXPECT_TRUE(emitter.emit(500.0, 0.05, 94.0));
  EXPECT_EQ(emitter.emitted(), 1u);
  EXPECT_EQ(bridge.played(), 1u);
  EXPECT_GT(tone_amplitude_at(500.0, 0.0, 0.05), 0.5);
}

TEST_F(BridgeFixture, EmitterEnforcesMinGap) {
  MpEmitter emitter(loop, bridge, /*min_gap=*/100 * net::kMillisecond);
  EXPECT_TRUE(emitter.emit(500.0, 0.03, 70.0));
  EXPECT_FALSE(emitter.emit(500.0, 0.03, 70.0));  // same instant
  EXPECT_EQ(emitter.suppressed(), 1u);

  loop.run_until(50 * net::kMillisecond);
  EXPECT_FALSE(emitter.emit(500.0, 0.03, 70.0));  // still inside the gap

  loop.run_until(150 * net::kMillisecond);
  EXPECT_TRUE(emitter.emit(500.0, 0.03, 70.0));
  EXPECT_EQ(emitter.emitted(), 2u);
  EXPECT_EQ(emitter.suppressed(), 2u);
}

TEST_F(BridgeFixture, EmitterSequenceNumbersAdvance) {
  MpEmitter emitter(loop, bridge, 0);
  emitter.emit(500.0, 0.01, 70.0);
  emitter.emit(600.0, 0.01, 70.0);
  // Two distinct tones scheduled (sequence uniqueness is internal; we
  // assert both got through).
  EXPECT_EQ(bridge.played(), 2u);
}

TEST_F(BridgeFixture, DistanceAttenuatesBridgeOutput) {
  const auto far_source = channel.add_source("far-pi", 2.0);
  PiSpeakerBridge far_bridge(loop, channel, far_source, 0);
  MpMessage msg;
  msg.frequency_hz = 750.0;
  msg.duration_s = 0.1;
  msg.intensity_db_spl = 94.0;
  far_bridge.play(msg);
  EXPECT_NEAR(tone_amplitude_at(750.0, 0.0, 0.1), 0.5, 0.05);
}

// --- tone reuse ------------------------------------------------------------
//
// The bridge synthesises each distinct tone once and shares its samples
// with every later play.  What the air carries must not change.

MpMessage tone_msg(double freq, double dur, double db) {
  MpMessage msg;
  msg.frequency_hz = freq;
  msg.duration_s = dur;
  msg.intensity_db_spl = db;
  return msg;
}

/// The tone a bridge plays for `msg`, synthesised afresh.
audio::Waveform fresh_tone(const MpMessage& msg,
                           double sample_rate = kSampleRate) {
  audio::ToneSpec spec;
  spec.frequency_hz = msg.frequency_hz;
  spec.duration_s = msg.duration_s;
  spec.amplitude = audio::spl_to_amplitude(msg.intensity_db_spl);
  spec.fade_s = std::min(0.015, msg.duration_s / 3.0);
  return audio::make_tone(spec, sample_rate);
}

bool bit_equal(const audio::Waveform& a, const audio::Waveform& b) {
  return a.size() == b.size() &&
         std::equal(a.samples().begin(), a.samples().end(),
                    b.samples().begin(), [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

TEST_F(BridgeFixture, RepeatedPlaysSoundLikeFreshTones) {
  const MpMessage msg = tone_msg(880.0, 0.03, 80.0);
  bridge.play(msg);
  loop.run_until(20 * net::kMillisecond);  // second play overlaps the first
  bridge.play(msg);

  audio::AcousticChannel fresh(kSampleRate);
  const auto fresh_source = fresh.add_source("pi", 1.0);
  fresh.emit(fresh_source, fresh_tone(msg), 0.0);
  fresh.emit(fresh_source, fresh_tone(msg), 0.02);

  audio::Microphone mic_a({}, kSampleRate);
  audio::Microphone mic_b({}, kSampleRate);
  for (double t0 : {0.0, 0.025}) {
    EXPECT_TRUE(bit_equal(mic_a.record(channel, t0, 0.025),
                          mic_b.record(fresh, t0, 0.025)))
        << "block at " << t0 << " s";
  }
}

TEST_F(BridgeFixture, SecondPlayReusesTheFirstPlaysSamples) {
  const MpMessage msg = tone_msg(700.0, 0.03, 70.0);
  bridge.play(msg);
  bridge.play(msg);
  ASSERT_EQ(channel.emission_count(), 2u);
  EXPECT_EQ(&channel.emission_sound(0), &channel.emission_sound(1));
}

TEST_F(BridgeFixture, TonesDifferingInIntensityOrDurationAreNotAliased) {
  // Both durations get the same 15 ms fade, so only the duration differs.
  const MpMessage base = tone_msg(700.0, 0.05, 70.0);
  const MpMessage louder = tone_msg(700.0, 0.05, 76.0);
  const MpMessage longer = tone_msg(700.0, 0.06, 70.0);
  bridge.play(base);
  bridge.play(louder);
  bridge.play(longer);
  ASSERT_EQ(channel.emission_count(), 3u);
  // Equal starts keep play order.
  EXPECT_TRUE(bit_equal(channel.emission_sound(0), fresh_tone(base)));
  EXPECT_TRUE(bit_equal(channel.emission_sound(1), fresh_tone(louder)));
  EXPECT_TRUE(bit_equal(channel.emission_sound(2), fresh_tone(longer)));
}

// --- process-wide tone bank -------------------------------------------------
//
// Every bridge draws its samples from ToneBank::global(): bridges on
// different channels of one sample rate share one copy of each tone.

TEST(ToneBank, BridgesOnChannelsOfOneRateShareSamples) {
  net::EventLoop loop;
  audio::AcousticChannel room_a(kSampleRate);
  audio::AcousticChannel room_b(kSampleRate);
  PiSpeakerBridge a(loop, room_a, room_a.add_source("pi-a", 1.0), 0);
  PiSpeakerBridge b(loop, room_b, room_b.add_source("pi-b", 1.0), 0);
  const MpMessage msg = tone_msg(1130.0, 0.03, 72.0);
  a.play(msg);
  b.play(msg);
  EXPECT_EQ(&room_a.emission_sound(0), &room_b.emission_sound(0));
  EXPECT_TRUE(bit_equal(room_b.emission_sound(0), fresh_tone(msg)));
}

TEST(ToneBank, ChannelsOfDifferentRatesDoNotAlias) {
  net::EventLoop loop;
  audio::AcousticChannel fast(kSampleRate);
  audio::AcousticChannel slow(kSampleRate / 2);
  PiSpeakerBridge a(loop, fast, fast.add_source("pi-fast", 1.0), 0);
  PiSpeakerBridge b(loop, slow, slow.add_source("pi-slow", 1.0), 0);
  const MpMessage msg = tone_msg(1150.0, 0.03, 72.0);
  a.play(msg);
  b.play(msg);
  EXPECT_NE(&fast.emission_sound(0), &slow.emission_sound(0));
  EXPECT_TRUE(bit_equal(fast.emission_sound(0), fresh_tone(msg)));
  EXPECT_TRUE(
      bit_equal(slow.emission_sound(0), fresh_tone(msg, kSampleRate / 2)));
}

TEST(ToneBank, HoldsOneEntryPerDistinctTone) {
  net::EventLoop loop;
  audio::AcousticChannel room(kSampleRate);
  std::vector<std::unique_ptr<PiSpeakerBridge>> bridges;
  for (int i = 0; i < 4; ++i) {
    bridges.push_back(std::make_unique<PiSpeakerBridge>(
        loop, room, room.add_source("pi" + std::to_string(i), 1.0), 0));
  }
  const std::size_t before = ToneBank::global().size();
  for (int round = 0; round < 5; ++round) {
    for (auto& bridge : bridges) {
      bridge->play(tone_msg(1173.0, 0.03, 72.0));
      bridge->play(tone_msg(1193.0, 0.03, 72.0));
    }
  }
  EXPECT_EQ(room.emission_count(), 40u);
  EXPECT_EQ(ToneBank::global().size(), before + 2);
}

}  // namespace
}  // namespace mdn::mp
