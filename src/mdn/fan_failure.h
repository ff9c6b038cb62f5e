// Passive server-fan failure detection (§7, Figs 6-7).
//
// "To identify failures, we find the total amplitude of each frequency in
// recorded sounds with a server fan both on and off; we obtain such
// amplitudes by computing the FFT of each given sound sample. ... The
// difference in amplitude for certain frequencies is considerably larger
// when comparing two audio signals of the fan on and off than when
// comparing two samples of a functioning fan."
//
// FanFailureDetector implements exactly that: it calibrates a reference
// amplitude spectrum (and the natural on-vs-on variability) from a
// baseline recording of the healthy fan, then classifies new samples by
// their total spectral amplitude difference from the reference.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "audio/waveform.h"
#include "dsp/fft_plan.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"

namespace mdn::core {

struct FanDetectorConfig {
  std::size_t fft_size = 8192;
  dsp::WindowKind window = dsp::WindowKind::kHann;
  /// Spectral band compared (fan tones live well below 4 kHz).
  double band_lo_hz = 50.0;
  double band_hi_hz = 4000.0;
  /// Alert when diff > mean_on_on + sigma_factor * std_on_on.
  double sigma_factor = 6.0;
};

class FanFailureDetector {
 public:
  explicit FanFailureDetector(double sample_rate,
                              const FanDetectorConfig& config = {});

  /// Learns the healthy-fan reference from `baseline` (recording with the
  /// fan running, any background).  The recording is cut into FFT-sized
  /// segments: the mean spectrum becomes the reference and the spread of
  /// segment-vs-reference differences becomes the alert threshold.
  /// Requires at least 4 segments.
  void calibrate(const audio::Waveform& baseline);
  bool calibrated() const noexcept { return calibrated_; }

  /// Total in-band amplitude difference between `sample` and the
  /// reference spectrum — the Fig 7 statistic.
  double difference(const audio::Waveform& sample) const;

  /// Scans a recording segment by segment and returns each segment's
  /// difference (a Fig 7 curve).
  std::vector<double> difference_series(const audio::Waveform& recording) const;

  /// True when `sample` is inconsistent with a running fan.
  bool is_failed(const audio::Waveform& sample) const;

  double threshold() const;
  double baseline_mean() const;
  double baseline_std() const;

 private:
  /// Reused buffers for segment analysis: one set serves a whole
  /// calibrate() or difference_series() batch, so the per-segment cost
  /// is copy + window + planned FFT with no allocation once warm.
  struct BandScratch {
    dsp::SpectrumWorkspace ws;
    std::vector<double> chunk;     // segment zero-padded to fft_size
    std::vector<double> spectrum;  // full single-sided spectrum
  };

  /// Writes the in-band amplitude spectrum of `segment` into `band`.
  void band_spectrum_into(std::span<const double> segment,
                          BandScratch& scratch,
                          std::vector<double>& band) const;

  double sample_rate_;
  FanDetectorConfig config_;
  std::shared_ptr<const dsp::RealFftPlan> plan_;
  std::vector<double> window_;
  double window_gain_;
  std::size_t band_lo_bin_ = 0;
  std::size_t band_hi_bin_ = 0;  // inclusive
  std::vector<double> reference_;  // mean in-band amplitude spectrum
  double mean_diff_ = 0.0;         // on-vs-on mean difference
  double std_diff_ = 0.0;          // on-vs-on std deviation
  bool calibrated_ = false;
};

}  // namespace mdn::core
