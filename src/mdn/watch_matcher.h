// The per-block onset decision of the listening application (§3, Fig 1),
// written once: MdnController::tick, rt::WorkerPool::process_block and
// extract_tone_events all call match_watches(), so a detector fix lands
// in one place.  What an onset does is the caller's hook (a template
// parameter: no std::function on the hot path).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "audio/emission_tag.h"
#include "common/annotations.h"
#include "mdn/tone_detector.h"
#include "obs/health.h"

namespace mdn::core {

/// One rising edge, as handed to the onset hook.
struct WatchOnset {
  std::size_t watch = 0;      ///< index into the watch list
  double frequency_hz = 0.0;  ///< the watched frequency
  double amplitude = 0.0;     ///< strongest peak within tolerance
  obs::CauseId cause = 0;     ///< first in-tolerance emission tag, or 0
};

/// Matches one block's `tones` against `watch_hz`.  Watch i is present
/// when a peak lies within `tolerance_hz` (inclusive), with the strongest
/// such peak's amplitude and the first in-tolerance tag's cause.  On an
/// onset (present, `latch[i] == 0`) `on_onset(WatchOnset)` runs and
/// returns the journal id it minted (0 for none), which replaces the
/// cause as the evidence handed to `est->observe_watch` (when non-null).
/// `latch` (one byte per watch) then records presence; it belongs to the
/// thread that owns the microphone.  Returns the number of onsets.
template <typename OnOnset>
MDN_REALTIME std::size_t match_watches(
    std::span<const double> watch_hz, std::span<const DetectedTone> tones,
    std::span<const audio::EmissionTag> tags, double tolerance_hz,
    std::span<char> latch, obs::MicSignalEstimator* est, OnOnset&& on_onset) {
  std::size_t onsets = 0;
  for (std::size_t i = 0; i < watch_hz.size(); ++i) {
    const double f = watch_hz[i];
    double amplitude = 0.0;
    bool present = false;
    for (const DetectedTone& t : tones) {
      if (std::abs(t.frequency_hz - f) <= tolerance_hz) {
        present = true;
        amplitude = std::max(amplitude, t.amplitude);
      }
    }
    obs::CauseId evidence = 0;
    if (present) {
      for (const audio::EmissionTag& tag : tags) {
        if (std::abs(tag.frequency_hz - f) <= tolerance_hz) {
          evidence = tag.cause;
          break;
        }
      }
    }
    const bool onset = present && latch[i] == 0;
    if (onset) {
      const obs::CauseId minted = on_onset(WatchOnset{i, f, amplitude, evidence});
      if (minted != 0) evidence = minted;
      ++onsets;
    }
    if (est != nullptr) {
      est->observe_watch(i, present, onset, amplitude, evidence);
    }
    latch[i] = present ? 1 : 0;
  }
  return onsets;
}

}  // namespace mdn::core
