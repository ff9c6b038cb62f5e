#include "dsp/fft_plan.h"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "dsp/simd.h"

namespace mdn::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

// Bit-reversal index table for an n-point (power-of-two) transform.
std::vector<std::uint32_t> make_bitrev(std::size_t n) {
  std::vector<std::uint32_t> table(n);
  std::size_t j = 0;
  table[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    table[i] = static_cast<std::uint32_t>(j);
  }
  return table;
}

// Stage-major twiddle table, n - 1 entries in total: the len/2 factors
// exp(sign * 2*pi*i*k/len) of stage `len` are stored contiguously, in
// stage order (len = 2, 4, ..., n).  The butterfly loop then walks each
// stage's slice sequentially — unit-stride loads instead of a strided
// gather through one shared table.
std::vector<Complex> make_twiddles(std::size_t n, bool inverse) {
  const double sign = inverse ? 2.0 : -2.0;
  std::vector<Complex> w;
  w.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle = sign * kPi * static_cast<double>(k) /
                           static_cast<double>(len);
      w.push_back(Complex{std::cos(angle), std::sin(angle)});
    }
  }
  return w;
}

}  // namespace

FftPlan::FftPlan(std::size_t size, bool inverse)
    : n_(size),
      inverse_(inverse),
      executions_counter_(
          &obs::Registry::global().counter("dsp/fft/executions")),
      passes_counter_(&obs::Registry::global().counter("dsp/fft/passes")) {
  if (n_ <= 1) return;  // 0- and 1-point transforms are the identity
  if (is_power_of_two(n_)) {
    bitrev_ = make_bitrev(n_);
    twiddles_ = make_twiddles(n_, inverse_);
    stages_ = static_cast<std::uint32_t>(std::countr_zero(n_));
    return;
  }

  // Bluestein chirp-z: X = w * IFFT(FFT(x*w) .* FFT(b)) where
  // w[k] = exp(sign*i*pi*k^2/n) and b[k] = conj(w[|k|]).  Everything that
  // depends only on n is precomputed here, including FFT(b).
  const double sign = inverse_ ? 1.0 : -1.0;
  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the argument small without changing the value.
    const auto k2 = static_cast<double>((k * k) % (2 * n_));
    const double angle = sign * kPi * k2 / static_cast<double>(n_);
    chirp_[k] = Complex{std::cos(angle), std::sin(angle)};
  }

  m_ = next_power_of_two(2 * n_ - 1);
  conv_forward_ = std::make_unique<FftPlan>(m_, false);
  conv_inverse_ = std::make_unique<FftPlan>(m_, true);

  kernel_fft_.assign(m_, Complex{0.0, 0.0});
  kernel_fft_[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    kernel_fft_[k] = std::conj(chirp_[k]);
    kernel_fft_[m_ - k] = kernel_fft_[k];
  }
  conv_forward_->execute(kernel_fft_);
}

void FftPlan::execute_pow2(std::span<Complex> data) const noexcept {
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  run_stages(data.data());
}

void FftPlan::run_stages(Complex* data) const noexcept {
  // Walk the stage-major twiddle table: no trig, no allocation, no
  // accumulated recurrence error.  Stages run fused in pairs
  // (radix-2^2): each pass applies stage len and stage 2*len to every
  // 4-element group in registers — the same butterflies, in the same
  // order, on the same twiddles as two single-stage passes, so the
  // result is bit-identical with half the sweeps over data and table.
  // An odd stage count leaves the first stage (len 2) on its own.
  const simd::Kernels& kern = simd::active_kernels();
  const Complex* stage = twiddles_.data();
  std::size_t h = 1;  // half-length of the next stage to run
  if (stages_ % 2 == 1) {
    kern.butterfly_aos(data, n_, 1, stage);
    stage += 1;
    h = 2;
  }
  for (; 4 * h <= n_; h *= 4) {
    kern.butterfly_pair(data, n_, h, stage, stage + h);
    stage += 3 * h;
  }
  executions_counter_->add(1);
  passes_counter_->add((stages_ + 1) / 2);
}

void FftPlan::execute(std::span<Complex> data,
                      std::span<Complex> scratch) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan::execute: size mismatch");
  }
  if (n_ <= 1) return;
  if (m_ == 0) {
    execute_pow2(data);
    return;
  }

  if (scratch.size() < m_) {
    throw std::invalid_argument("FftPlan::execute: scratch too small");
  }
  // a = (x .* w) zero-padded to m, convolved with the precomputed kernel.
  const simd::Kernels& kern = simd::active_kernels();
  std::span<Complex> a = scratch.first(m_);
  kern.cmul_aos(data.data(), chirp_.data(), a.data(), n_);
  for (std::size_t k = n_; k < m_; ++k) a[k] = Complex{0.0, 0.0};
  conv_forward_->execute_pow2(a);
  kern.cmul_aos(a.data(), kernel_fft_.data(), a.data(), m_);
  conv_inverse_->execute_pow2(a);
  const double scale = 1.0 / static_cast<double>(m_);
  kern.cmul_aos(a.data(), chirp_.data(), data.data(), n_);
  for (std::size_t k = 0; k < n_; ++k) {
    data[k] = Complex{data[k].real() * scale, data[k].imag() * scale};
  }
}

std::vector<Complex> FftPlan::transform(std::span<const Complex> input) const {
  std::vector<Complex> data(input.begin(), input.end());
  std::vector<Complex> scratch(scratch_size());
  execute(data, scratch);
  return data;
}

RealFftPlan::RealFftPlan(std::size_t size) : n_(size) {
  if (n_ >= 4 && is_power_of_two(n_)) {
    const std::size_t half = n_ / 2;
    half_plan_ = std::make_unique<FftPlan>(half, false);
    untangle_.resize(half + 1);
    for (std::size_t k = 0; k <= half; ++k) {
      const double angle = -2.0 * kPi * static_cast<double>(k) /
                           static_cast<double>(n_);
      untangle_[k] = Complex{std::cos(angle), std::sin(angle)};
    }
    scratch_size_ = half;
    return;
  }
  full_plan_ = std::make_unique<FftPlan>(n_, false);
  scratch_size_ = n_ + full_plan_->scratch_size();
}

void RealFftPlan::execute(std::span<const double> input,
                          std::span<Complex> out_bins,
                          std::span<Complex> scratch) const {
  if (input.size() != n_) {
    throw std::invalid_argument("RealFftPlan::execute: size mismatch");
  }
  if (n_ == 0) return;
  if (out_bins.size() < bins()) {
    throw std::invalid_argument("RealFftPlan::execute: out_bins too small");
  }
  if (scratch.size() < scratch_size_) {
    throw std::invalid_argument("RealFftPlan::execute: scratch too small");
  }

  if (half_plan_ != nullptr) {
    // Packed-real: transform the N real samples as an N/2-point complex
    // FFT z[i] = x[2i] + i*x[2i+1], then untangle even/odd with the
    // precomputed coefficients.  The pack reads the sample pairs in
    // bit-reversed order, so it is the half plan's permutation too.
    const std::size_t half = n_ / 2;
    const std::vector<std::uint32_t>& rev = half_plan_->bitrev_;
    for (std::size_t i = 0; i < half; ++i) {
      const std::size_t j = 2 * std::size_t{rev[i]};
      scratch[i] = Complex{input[j], input[j + 1]};
    }
    half_plan_->run_stages(scratch.data());
    simd::active_kernels().untangle_real(scratch.data(), untangle_.data(),
                                         out_bins.data(), half);
    return;
  }

  // Fallback: promote to complex in scratch and run the full plan.
  std::span<Complex> data = scratch.first(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] = Complex{input[i], 0.0};
  full_plan_->execute(data, scratch.subspan(n_));
  for (std::size_t k = 0; k < bins(); ++k) out_bins[k] = data[k];
}

std::vector<Complex> RealFftPlan::spectrum(
    std::span<const double> input) const {
  std::vector<Complex> out(bins());
  std::vector<Complex> scratch(scratch_size());
  execute(input, out, scratch);
  return out;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> PlanCache::complex_plan(std::size_t size,
                                                       bool inverse) {
  const std::pair<std::size_t, bool> key{size, inverse};
  common::MutexLock lock(mu_);
  auto it = complex_.find(key);
  if (it == complex_.end()) {
    it = complex_.emplace(key, std::make_shared<FftPlan>(size, inverse))
             .first;
    ++constructions_;
  }
  return it->second;
}

std::shared_ptr<const RealFftPlan> PlanCache::real_plan(std::size_t size) {
  common::MutexLock lock(mu_);
  auto it = real_.find(size);
  if (it == real_.end()) {
    it = real_.emplace(size, std::make_shared<RealFftPlan>(size)).first;
    ++constructions_;
  }
  return it->second;
}

std::size_t PlanCache::size() const {
  common::MutexLock lock(mu_);
  return complex_.size() + real_.size();
}

std::size_t PlanCache::constructions_for_testing() const {
  common::MutexLock lock(mu_);
  return constructions_;
}

}  // namespace mdn::dsp
