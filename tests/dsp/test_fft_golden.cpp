// Raw spectrum golden digests: FNV-1a over the exact output bits of the
// planned transforms on fixed inputs, pinned so that any rewrite of the
// FFT engine (stage fusion, pack/untangle, kernel changes) must keep
// every bit of every bin — not merely stay within a tolerance.  Each
// digest is checked under every ISA this build and CPU can run (scalar,
// SSE2, AVX2; scalar only under -DMDN_NO_SIMD), since all kernel tables
// promise the scalar reference's bits.
//
// The pinned values were recorded from the original stage-by-stage
// radix-2 engine; they change only if the arithmetic does.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <span>
#include <vector>

#include "audio/rng.h"
#include "dsp/fft_plan.h"
#include "dsp/simd.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"

namespace mdn::dsp {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const Complex> values) {
  return fnv1a(h, std::span<const double>(
                      reinterpret_cast<const double*>(values.data()),
                      2 * values.size()));
}

// Two tones, one of them off-bin, over uniform noise: every bin carries
// non-trivial bits.
std::vector<double> test_signal(std::size_t n, std::uint64_t seed) {
  audio::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = 0.5 * std::sin(0.05 * t) + 0.25 * std::cos(0.3131 * t) +
           rng.uniform(-0.1, 0.1);
  }
  return x;
}

std::vector<Complex> test_complex(std::size_t n, std::uint64_t seed) {
  audio::Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

// Real plans at four sizes, each fed a full-length block, a block of
// 2400/4096 of the size (the detector's 50 ms block in a 4096 pad) and
// an odd-length block, through amplitude_spectrum_into.  Both the raw
// half-spectrum bins and the normalised amplitudes are digested.
std::uint64_t real_spectrum_digest() {
  std::uint64_t h = kFnvOffset;
  for (const std::size_t n : {std::size_t{256}, std::size_t{1024},
                              std::size_t{4096}, std::size_t{8192}}) {
    const RealFftPlan plan(n);
    SpectrumWorkspace ws(plan);
    std::vector<double> out(plan.bins());
    for (const std::size_t len : {n, n * 2400 / 4096, (n / 3) | 1}) {
      const auto signal = test_signal(len, 17 + n + len);
      const auto window = make_window(WindowKind::kBlackman, len);
      amplitude_spectrum_into(signal, window, window_coherent_gain(window),
                              plan, ws, out);
      h = fnv1a(h, std::span<const Complex>(ws.bins.data(), plan.bins()));
      h = fnv1a(h, out);
    }
  }
  return h;
}

// Complex power-of-two plans, forward and inverse, at every size from 2
// to 4096: odd and even stage counts alike.
std::uint64_t complex_pow2_digest() {
  std::uint64_t h = kFnvOffset;
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    for (const bool inverse : {false, true}) {
      const FftPlan plan(n, inverse);
      h = fnv1a(h, plan.transform(test_complex(n, 31 + n + inverse)));
    }
  }
  return h;
}

// Bluestein plans of the detector's block length, complex both ways
// and real.
std::uint64_t bluestein_2400_digest() {
  std::uint64_t h = kFnvOffset;
  for (const bool inverse : {false, true}) {
    const FftPlan plan(2400, inverse);
    h = fnv1a(h, plan.transform(test_complex(2400, 47 + inverse)));
  }
  // A non-power-of-two real plan promotes to this complex path.
  h = fnv1a(h, RealFftPlan(2400).spectrum(test_signal(2400, 53)));
  return h;
}

constexpr std::uint64_t kRealSpectrumGolden = 0x9a31e46043b6d62aULL;
constexpr std::uint64_t kComplexPow2Golden = 0xab70c8262e5da481ULL;
constexpr std::uint64_t kBluestein2400Golden = 0xdb57c9e040fdd23fULL;

class FftGolden : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (!simd::isa_available(GetParam())) {
      GTEST_SKIP() << simd::isa_name(GetParam()) << " not available here";
    }
    previous_ = simd::set_active_isa_for_testing(GetParam());
  }
  void TearDown() override {
    if (simd::isa_available(GetParam())) {
      simd::set_active_isa_for_testing(previous_);
    }
  }

 private:
  simd::Isa previous_ = simd::Isa::kScalar;
};

TEST_P(FftGolden, RealSpectrumMatchesPinnedDigest) {
  EXPECT_EQ(real_spectrum_digest(), kRealSpectrumGolden)
      << std::hex << "0x" << real_spectrum_digest();
}

TEST_P(FftGolden, ComplexPow2MatchesPinnedDigest) {
  EXPECT_EQ(complex_pow2_digest(), kComplexPow2Golden)
      << std::hex << "0x" << complex_pow2_digest();
}

TEST_P(FftGolden, Bluestein2400MatchesPinnedDigest) {
  EXPECT_EQ(bluestein_2400_digest(), kBluestein2400Golden)
      << std::hex << "0x" << bluestein_2400_digest();
}

INSTANTIATE_TEST_SUITE_P(AllIsas, FftGolden,
                         ::testing::Values(simd::Isa::kScalar,
                                           simd::Isa::kSse2,
                                           simd::Isa::kAvx2),
                         [](const auto& info) {
                           return std::string(simd::isa_name(info.param));
                         });

}  // namespace
}  // namespace mdn::dsp
