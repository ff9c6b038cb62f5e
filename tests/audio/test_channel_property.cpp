// Property tests on the acoustic channel: linearity, time invariance,
// listener-position consistency and the start-ordered emission store,
// over randomised scenes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "audio/channel.h"
#include "audio/noise.h"
#include "audio/synth.h"

namespace mdn::audio {
namespace {

constexpr double kSampleRate = 48000.0;

Waveform random_sound(Rng& rng) {
  ToneSpec spec;
  spec.frequency_hz = rng.uniform(200.0, 8000.0);
  spec.amplitude = rng.uniform(0.05, 0.8);
  spec.duration_s = rng.uniform(0.02, 0.3);
  spec.phase_rad = rng.uniform(0.0, 6.28);
  return make_tone(spec, kSampleRate);
}

class ChannelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelProperty, RenderIsSuperpositionOfEmissions) {
  Rng rng(GetParam());
  const int n_emissions = 2 + static_cast<int>(rng.below(6));

  // Build one channel with all emissions and n channels with one each.
  AcousticChannel combined(kSampleRate);
  std::vector<std::unique_ptr<AcousticChannel>> singles;
  for (int i = 0; i < n_emissions; ++i) {
    const double dist = rng.uniform(0.2, 3.0);
    const double start = rng.uniform(0.0, 0.5);
    const Waveform sound = random_sound(rng);

    const auto id = combined.add_source("s" + std::to_string(i), dist);
    combined.emit(id, sound, start);

    singles.push_back(std::make_unique<AcousticChannel>(kSampleRate));
    const auto sid = singles.back()->add_source("s", dist);
    singles.back()->emit(sid, sound, start);
  }

  const Waveform whole = combined.render(0.0, 1.0);
  Waveform sum(kSampleRate, whole.size());
  for (const auto& ch : singles) sum.mix_at(ch->render(0.0, 1.0), 0);

  ASSERT_EQ(whole.size(), sum.size());
  for (std::size_t i = 0; i < whole.size(); i += 131) {
    ASSERT_NEAR(whole[i], sum[i], 1e-12) << "sample " << i;
  }
}

TEST_P(ChannelProperty, RenderWindowsTileSeamlessly) {
  // Rendering [0,1) must equal rendering [0,0.5)+[0.5,1) concatenated.
  Rng rng(GetParam() + 1000);
  AcousticChannel ch(kSampleRate);
  for (int i = 0; i < 4; ++i) {
    const auto id = ch.add_source("s", rng.uniform(0.3, 2.0));
    ch.emit(id, random_sound(rng), rng.uniform(0.0, 0.8));
  }
  Rng noise_rng(GetParam());
  ch.add_ambient(make_pink_noise(0.37, 0.05, kSampleRate, noise_rng), true,
                 0.1);

  const Waveform whole = ch.render(0.0, 1.0);
  Waveform tiled = ch.render(0.0, 0.5);
  tiled.append(ch.render(0.5, 0.5));

  ASSERT_EQ(whole.size(), tiled.size());
  for (std::size_t i = 0; i < whole.size(); i += 97) {
    ASSERT_NEAR(whole[i], tiled[i], 1e-12) << "sample " << i;
  }
}

TEST_P(ChannelProperty, OriginRenderEqualsRenderAtOrigin) {
  Rng rng(GetParam() + 2000);
  AcousticChannel ch(kSampleRate);
  for (int i = 0; i < 3; ++i) {
    const auto id = ch.add_source_at(
        "s", {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)});
    ch.emit(id, random_sound(rng), rng.uniform(0.0, 0.3));
  }
  const Waveform a = ch.render(0.0, 0.6);
  const Waveform b = ch.render_at({0.0, 0.0}, 0.0, 0.6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 53) {
    ASSERT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST_P(ChannelProperty, EquidistantListenersHearTheSame) {
  Rng rng(GetParam() + 3000);
  AcousticChannel ch(kSampleRate);
  const auto id = ch.add_source_at("s", {0.0, 0.0});
  ch.emit(id, random_sound(rng), 0.05);

  // Two listeners on the same circle around the source.
  const double r = rng.uniform(0.5, 4.0);
  const double theta = rng.uniform(0.0, 6.28);
  const Waveform a =
      ch.render_at({r * std::cos(theta), r * std::sin(theta)}, 0.0, 0.5);
  const Waveform b = ch.render_at({r, 0.0}, 0.0, 0.5);
  for (std::size_t i = 0; i < a.size(); i += 41) {
    ASSERT_NEAR(a[i], b[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- emission store vs a brute-force reference ---------------------------
//
// The channel keeps emissions sorted by start time and mixes only those
// that overlap the block, each over its overlapping samples only.  The
// reference below is the full-history scan that store replaced: every
// emission and every sample, in start order with equal starts in emit
// order.  The channel must match it bit for bit.

struct SceneSound {
  std::shared_ptr<const Waveform> sound;
  double start_s = 0.0;
  SourceId source = 0;
  bool ambient = false;
  bool loop = false;
  EmissionTag tag{};
};

/// Everything fed to a channel, kept in emit order for the reference.
struct Scene {
  double speed_of_sound = 0.0;
  std::vector<Position> sources;
  std::vector<SceneSound> emissions;
  std::vector<SceneSound> ambient;

  std::vector<SceneSound> emissions_by_start() const {
    std::vector<SceneSound> v = emissions;
    std::stable_sort(v.begin(), v.end(),
                     [](const SceneSound& a, const SceneSound& b) {
                       return a.start_s < b.start_s;
                     });
    return v;
  }
};

Waveform reference_render_at(const Scene& scene, Position listener,
                             double start_time_s, double duration_s) {
  const double sample_rate = kSampleRate;
  const auto n = static_cast<std::size_t>(
      std::llround(std::max(0.0, duration_s) * sample_rate));
  Waveform out(sample_rate, n);
  if (n == 0) return out;

  const auto mix_emission = [&](const SceneSound& e) {
    if (e.sound->empty()) return;
    double gain = 1.0;
    double flight_s = 0.0;
    if (!e.ambient) {
      const double d = distance_m(scene.sources[e.source], listener);
      gain = 1.0 / std::max(d, 0.1);
      if (scene.speed_of_sound > 0.0) flight_s = d / scene.speed_of_sound;
    }
    const auto len = static_cast<std::ptrdiff_t>(e.sound->size());
    const auto rel0 = static_cast<std::ptrdiff_t>(std::llround(
        (start_time_s - e.start_s - flight_s) * sample_rate));
    for (std::size_t i = 0; i < n; ++i) {
      std::ptrdiff_t rel = rel0 + static_cast<std::ptrdiff_t>(i);
      if (e.loop) {
        if (rel < 0) rel = (rel % len + len) % len;
        else rel %= len;
      } else if (rel < 0 || rel >= len) {
        continue;
      }
      out[i] += gain * (*e.sound)[static_cast<std::size_t>(rel)];
    }
  };

  for (const auto& e : scene.emissions_by_start()) mix_emission(e);
  for (const auto& e : scene.ambient) mix_emission(e);
  return out;
}

std::vector<EmissionTag> reference_tags(const Scene& scene, double start_s,
                                        double end_s, std::size_t cap) {
  std::vector<EmissionTag> out;
  for (const SceneSound& e : scene.emissions_by_start()) {
    if (e.tag.cause == 0) continue;
    const double e_end =
        e.start_s + static_cast<double>(e.sound->size()) / kSampleRate;
    if (e.start_s < end_s && e_end > start_s) {
      if (out.size() == cap) break;
      out.push_back(e.tag);
    }
  }
  return out;
}

/// A channel and the Scene that mirrors it.
struct MirroredChannel {
  AcousticChannel channel{kSampleRate};
  Scene scene;

  void set_speed_of_sound(double mps) {
    channel.set_speed_of_sound(mps);
    scene.speed_of_sound = mps;
  }
  SourceId add_source(Position p) {
    scene.sources.push_back(p);
    return channel.add_source_at("s", p);
  }
  void emit(SourceId id, std::shared_ptr<const Waveform> sound,
            double start_s, EmissionTag tag) {
    scene.emissions.push_back({sound, start_s, id, false, false, tag});
    channel.emit(id, std::move(sound), start_s, tag);
  }
  void add_ambient(const Waveform& sound, bool loop, double start_s) {
    scene.ambient.push_back({std::make_shared<const Waveform>(sound),
                             start_s, 0, true, loop, {}});
    channel.add_ambient(sound, loop, start_s);
  }
};

bool bit_equal(const Waveform& a, const Waveform& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Noise of a length drawn to cover the store's edge cases: empty and
/// one-sample sounds, block-sized ones, and the odd one far longer than
/// the rest (which sets how far back a render must look).
std::shared_ptr<const Waveform> random_burst(Rng& rng) {
  std::size_t n = 0;
  switch (rng.below(8)) {
    case 0: n = rng.below(2); break;
    case 1: n = 24000 + rng.below(24000); break;
    default: n = 50 + rng.below(4000); break;
  }
  Waveform w(kSampleRate, n);
  for (std::size_t i = 0; i < n; ++i) w[i] = rng.uniform(-1.0, 1.0);
  return std::make_shared<const Waveform>(std::move(w));
}

/// Starts on a coarse 5 ms grid (frequent ties) or anywhere, in random
/// order, some before the epoch.
double random_start(Rng& rng) {
  if (rng.below(2) == 0) {
    return static_cast<double>(rng.below(120)) * 0.005 - 0.05;
  }
  return rng.uniform(-0.05, 0.6);
}

class EmissionStoreProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmissionStoreProperty, RenderAndTagsMatchFullScanBitForBit) {
  Rng rng(GetParam() * 7919);
  MirroredChannel m;
  if (GetParam() % 2 == 0) m.set_speed_of_sound(rng.uniform(200.0, 400.0));
  const int n_sources = 1 + static_cast<int>(rng.below(5));
  for (int i = 0; i < n_sources; ++i) {
    m.add_source({rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)});
  }
  Rng bed_rng(GetParam());
  m.add_ambient(make_white_noise(0.013, 0.05, kSampleRate, bed_rng),
                /*loop=*/true, rng.uniform(0.0, 0.2));
  m.add_ambient(make_white_noise(0.07, 0.05, kSampleRate, bed_rng),
                /*loop=*/false, rng.uniform(0.0, 0.4));

  const std::vector<Position> listeners = {
      {0.0, 0.0}, {rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)}};
  std::uint64_t next_cause = 1;
  const auto emit_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const auto source = static_cast<SourceId>(
          rng.below(static_cast<std::uint64_t>(n_sources)));
      EmissionTag tag{};
      if (rng.below(4) != 0) tag = {next_cause++, rng.uniform(200.0, 8000.0)};
      // Reuse a sound now and then: emissions may share samples.
      const bool reuse = !m.scene.emissions.empty() && rng.below(4) == 0;
      auto sound = reuse ? m.scene.emissions[rng.below(
                               m.scene.emissions.size())].sound
                         : random_burst(rng);
      m.emit(source, std::move(sound), random_start(rng), tag);
    }
  };

  // Blocks: random ones, plus blocks whose start or end lands one sample
  // either side of an emission's arrival or departure at the listener.
  struct Block {
    Position listener;
    double start_s;
    double duration_s;
  };
  const auto pick_blocks = [&] {
    std::vector<Block> blocks;
    const double sample_s = 1.0 / kSampleRate;
    for (int i = 0; i < 12; ++i) {
      blocks.push_back({listeners[rng.below(listeners.size())],
                        rng.uniform(-0.1, 1.6), rng.uniform(0.0005, 0.06)});
    }
    for (int i = 0; i < 12; ++i) {
      const SceneSound& e =
          m.scene.emissions[rng.below(m.scene.emissions.size())];
      const Position l = listeners[rng.below(listeners.size())];
      const double flight_s =
          m.scene.speed_of_sound > 0.0
              ? distance_m(m.scene.sources[e.source], l) /
                    m.scene.speed_of_sound
              : 0.0;
      const double edge =
          e.start_s + flight_s +
          (rng.below(2) == 0 ? 0.0 : e.sound->duration_s());
      const double dur = rng.uniform(0.001, 0.05);
      const double shift =
          static_cast<double>(static_cast<int>(rng.below(3)) - 1) * sample_s;
      // Block starting at the edge, or ending there.
      const double start =
          rng.below(2) == 0 ? edge + shift : edge - dur + shift;
      blocks.push_back({l, start, dur});
    }
    return blocks;
  };
  const auto check = [&](const std::vector<Block>& blocks) {
    for (const Block& b : blocks) {
      const Waveform got =
          m.channel.render_at(b.listener, b.start_s, b.duration_s);
      const Waveform want =
          reference_render_at(m.scene, b.listener, b.start_s, b.duration_s);
      ASSERT_TRUE(bit_equal(got, want))
          << "block at " << b.start_s << " s for " << b.duration_s
          << " s, listener (" << b.listener.x << ", " << b.listener.y
          << ")";

      const double end_s = b.start_s + b.duration_s;
      const std::size_t cap = rng.below(10);
      std::vector<EmissionTag> tags(cap);
      tags.resize(m.channel.collect_tags(b.start_s, end_s, tags));
      const auto want_tags = reference_tags(m.scene, b.start_s, end_s, cap);
      ASSERT_EQ(tags.size(), want_tags.size()) << "block at " << b.start_s;
      for (std::size_t i = 0; i < tags.size(); ++i) {
        EXPECT_EQ(tags[i].cause, want_tags[i].cause);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(tags[i].frequency_hz),
                  std::bit_cast<std::uint64_t>(want_tags[i].frequency_hz));
      }
    }
  };

  emit_some(10 + static_cast<int>(rng.below(20)));
  const std::vector<Block> early = pick_blocks();
  check(early);
  // Later emits (some starting before blocks already rendered) must not
  // change how the past is heard, apart from what they add to it.
  emit_some(10 + static_cast<int>(rng.below(20)));
  check(early);
  check(pick_blocks());
}

TEST(EmissionStore, EqualStartsMixInEmitOrder) {
  // Three loud-quiet-loud sounds at one start: floating-point addition is
  // order-sensitive, so emit order must be the mix order.
  MirroredChannel m;
  const SourceId s = m.add_source({1.0, 0.0});
  const auto sound = [](double v) {
    return std::make_shared<const Waveform>(
        kSampleRate, std::vector<double>(8, v));
  };
  m.emit(s, sound(1e16), 0.01, {});
  m.emit(s, sound(1.0), 0.01, {});
  m.emit(s, sound(-1e16), 0.01, {});
  m.emit(s, sound(3.0), 0.0, {});  // earlier start, emitted last
  const Waveform got = m.channel.render(0.0, 0.02);
  EXPECT_TRUE(bit_equal(got, reference_render_at(m.scene, {}, 0.0, 0.02)));
  const auto at = static_cast<std::size_t>(std::llround(0.01 * kSampleRate));
  EXPECT_EQ(got[at], 0.0);  // (1e16 + 1) - 1e16 rounds the 1 away
  EXPECT_EQ(got[0], 3.0);
}

TEST(EmissionStore, SharedSamplesAreNotCopied) {
  AcousticChannel ch(kSampleRate);
  const SourceId s = ch.add_source("s", 1.0);
  const auto sound = std::make_shared<const Waveform>(
      kSampleRate, std::vector<double>(480, 0.5));
  ch.emit(s, sound, 0.2);
  ch.emit(s, sound, 0.1);
  ASSERT_EQ(ch.emission_count(), 2u);
  EXPECT_EQ(&ch.emission_sound(0), sound.get());
  EXPECT_EQ(&ch.emission_sound(1), sound.get());
  EXPECT_EQ(sound.use_count(), 3);
}

TEST(EmissionStore, RejectsNullSoundAndNonFiniteStart) {
  AcousticChannel ch(kSampleRate);
  const SourceId s = ch.add_source("s", 1.0);
  EXPECT_THROW(ch.emit(s, std::shared_ptr<const Waveform>{}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ch.emit(s, Waveform(kSampleRate, std::size_t{4}),
                       std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmissionStoreProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace mdn::audio
