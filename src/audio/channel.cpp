#include "audio/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mdn::audio {

namespace {
constexpr double kReferenceSpl = 94.0;  // dB SPL at amplitude 1.0
constexpr double kMinDistanceM = 0.1;

double distance_gain(double d) noexcept {
  return 1.0 / std::max(d, kMinDistanceM);
}
}  // namespace

double spl_to_amplitude(double db_spl) noexcept {
  return std::pow(10.0, (db_spl - kReferenceSpl) / 20.0);
}

double amplitude_to_spl(double amplitude) noexcept {
  if (amplitude <= 0.0) return -1e9;
  return kReferenceSpl + 20.0 * std::log10(amplitude);
}

AcousticChannel::AcousticChannel(double sample_rate)
    : sample_rate_(sample_rate) {
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("AcousticChannel: sample rate");
  }
}

SourceId AcousticChannel::add_source(std::string name, double distance_m) {
  if (distance_m < 0.0) {
    throw std::invalid_argument("add_source: negative distance");
  }
  return add_source_at(std::move(name), Position{distance_m, 0.0});
}

SourceId AcousticChannel::add_source_at(std::string name,
                                        Position position) {
  sources_.push_back({std::move(name), position});
  return static_cast<SourceId>(sources_.size() - 1);
}

void AcousticChannel::set_source_distance(SourceId id, double distance_m) {
  sources_.at(id).position = Position{distance_m, 0.0};
}

void AcousticChannel::set_source_position(SourceId id, Position position) {
  sources_.at(id).position = position;
}

Position AcousticChannel::source_position(SourceId id) const {
  return sources_.at(id).position;
}

const std::string& AcousticChannel::source_name(SourceId id) const {
  return sources_.at(id).name;
}

void AcousticChannel::emit(SourceId id, Waveform sound, double start_time_s) {
  emit(id, std::make_shared<const Waveform>(std::move(sound)), start_time_s);
}

void AcousticChannel::emit(SourceId id, Waveform sound, double start_time_s,
                           EmissionTag tag) {
  emit(id, std::make_shared<const Waveform>(std::move(sound)), start_time_s,
       tag);
}

void AcousticChannel::emit(SourceId id, std::shared_ptr<const Waveform> sound,
                           double start_time_s, EmissionTag tag) {
  if (!sound) {
    throw std::invalid_argument("emit: null sound");
  }
  if (sound->sample_rate() != sample_rate_) {
    throw std::invalid_argument("emit: sample rate mismatch");
  }
  if (id >= sources_.size()) {
    throw std::out_of_range("emit: unknown source");
  }
  if (!std::isfinite(start_time_s)) {
    throw std::invalid_argument("emit: start time must be finite");
  }
  longest_emission_ = std::max(longest_emission_, sound->size());
  // upper_bound: an emission starting with others goes after them, so a
  // stream emitted in time order is stored (and mixed) in emit order.
  const auto at = std::upper_bound(
      emissions_.begin(), emissions_.end(), start_time_s,
      [](double t, const Emission& e) { return t < e.start_s; });
  emissions_.insert(at, {std::move(sound), start_time_s, id,
                         /*loop=*/false, tag});
}

std::size_t AcousticChannel::first_audible_at(
    double t_s, double max_flight_s) const noexcept {
  // An emission that started more than the longest emission plus the
  // longest flight before t_s has fallen silent there; one extra sample
  // covers the rounding of its start to the sample grid.
  const double from_s =
      t_s - static_cast<double>(longest_emission_ + 1) / sample_rate_ -
      max_flight_s;
  const auto it = std::lower_bound(
      emissions_.begin(), emissions_.end(), from_s,
      [](const Emission& e, double t) { return e.start_s < t; });
  return static_cast<std::size_t>(it - emissions_.begin());
}

std::size_t AcousticChannel::collect_tags(
    double start_s, double end_s, std::span<EmissionTag> out) const noexcept {
  std::size_t n = 0;
  for (std::size_t k = first_audible_at(start_s, /*max_flight_s=*/0.0);
       k < emissions_.size() && emissions_[k].start_s < end_s; ++k) {
    const Emission& e = emissions_[k];
    if (e.tag.cause == 0) continue;
    const double e_end =
        e.start_s + static_cast<double>(e.sound->size()) / sample_rate_;
    if (e_end > start_s) {
      if (n == out.size()) break;  // truncate: fixed listener scratch
      out[n++] = e.tag;
    }
  }
  return n;
}

void AcousticChannel::add_ambient(Waveform sound, bool loop,
                                  double start_time_s) {
  if (sound.sample_rate() != sample_rate_) {
    throw std::invalid_argument("add_ambient: sample rate mismatch");
  }
  if (sound.empty()) return;
  ambient_.push_back({std::make_shared<const Waveform>(std::move(sound)),
                      start_time_s, 0, loop});
}

Waveform AcousticChannel::render(double start_time_s,
                                 double duration_s) const {
  return render_at(Position{}, start_time_s, duration_s);
}

void AcousticChannel::mix(const Emission& e, double gain, double flight_s,
                          double start_time_s,
                          std::span<double> out) const noexcept {
  const Waveform& sound = *e.sound;
  const auto len = static_cast<std::ptrdiff_t>(sound.size());
  if (len == 0) return;
  const auto n = static_cast<std::ptrdiff_t>(out.size());
  // Sample index (relative to the emission) aligned with out[0].
  const auto rel0 = static_cast<std::ptrdiff_t>(
      std::llround((start_time_s - e.start_s - flight_s) * sample_rate_));
  if (e.loop) {
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      std::ptrdiff_t rel = rel0 + i;
      if (rel < 0) rel = (rel % len + len) % len;
      else rel %= len;
      out[static_cast<std::size_t>(i)] +=
          gain * sound[static_cast<std::size_t>(rel)];
    }
    return;
  }
  // One-shot: only out[i] with 0 <= rel0 + i < len hear it.
  const std::ptrdiff_t begin = std::max<std::ptrdiff_t>(0, -rel0);
  const std::ptrdiff_t end = std::min(n, len - rel0);
  for (std::ptrdiff_t i = begin; i < end; ++i) {
    out[static_cast<std::size_t>(i)] +=
        gain * sound[static_cast<std::size_t>(rel0 + i)];
  }
}

Waveform AcousticChannel::render_at(Position listener, double start_time_s,
                                    double duration_s) const {
  const auto n = static_cast<std::size_t>(
      std::llround(std::max(0.0, duration_s) * sample_rate_));
  Waveform out(sample_rate_, n);
  if (n == 0) return out;

  double max_flight_s = 0.0;
  if (speed_of_sound_ > 0.0) {
    for (const Source& s : sources_) {
      max_flight_s = std::max(
          max_flight_s, distance_m(s.position, listener) / speed_of_sound_);
    }
  }
  // Visit only emissions that can reach a sample of the block; none
  // starting after its end (plus a sample of rounding slack) can.
  const double to_s =
      start_time_s + static_cast<double>(n + 1) / sample_rate_;
  for (std::size_t k = first_audible_at(start_time_s, max_flight_s);
       k < emissions_.size() && emissions_[k].start_s <= to_s; ++k) {
    const Emission& e = emissions_[k];
    const double d = distance_m(sources_[e.source].position, listener);
    const double flight_s = speed_of_sound_ > 0.0 ? d / speed_of_sound_ : 0.0;
    mix(e, distance_gain(d), flight_s, start_time_s, out.samples());
  }
  for (const auto& e : ambient_) mix(e, 1.0, 0.0, start_time_s, out.samples());
  return out;
}

void AcousticChannel::clear_emissions() {
  emissions_.clear();
  longest_emission_ = 0;
}

double AcousticChannel::last_emission_end_s() const noexcept {
  double end = 0.0;
  for (const auto& e : emissions_) {
    end = std::max(end, e.start_s + e.sound->duration_s());
  }
  return end;
}

Microphone::Microphone(const MicrophoneSpec& spec, double sample_rate)
    : spec_(spec), sample_rate_(sample_rate), rng_(spec.seed) {
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("Microphone: sample rate");
  }
}

Waveform Microphone::record(const AcousticChannel& channel,
                            double start_time_s, double duration_s) {
  if (channel.sample_rate() != sample_rate_) {
    throw std::invalid_argument("Microphone::record: sample rate mismatch");
  }
  Waveform w = channel.render_at(spec_.position, start_time_s, duration_s);
  const double lsb =
      spec_.adc_bits > 0 ? spec_.clip_level / std::pow(2.0, spec_.adc_bits - 1)
                         : 0.0;
  for (auto& s : w.samples()) {
    s *= spec_.gain;
    s += spec_.noise_floor_rms * rng_.gaussian();
    s = std::clamp(s, -spec_.clip_level, spec_.clip_level);
    if (lsb > 0.0) s = std::round(s / lsb) * lsb;
  }
  return w;
}

}  // namespace mdn::audio
