#include "mp/bridge.h"

#include <algorithm>
#include <bit>

#include "obs/journal.h"

namespace mdn::mp {

PiSpeakerBridge::PiSpeakerBridge(net::EventLoop& loop,
                                 audio::AcousticChannel& channel,
                                 audio::SourceId source,
                                 net::SimTime processing_delay)
    : loop_(loop),
      channel_(channel),
      source_(source),
      processing_delay_(processing_delay),
      played_counter_(
          &obs::Registry::global().counter("mp/bridge/tones_played")),
      malformed_counter_(
          &obs::Registry::global().counter("mp/bridge/malformed")) {}

void PiSpeakerBridge::on_wire(std::span<const std::uint8_t> wire) {
  MpError err = MpError::kNone;
  const auto msg = unmarshal(wire, &err);
  if (!msg) {
    ++malformed_;
    malformed_counter_->inc();
    last_error_ = err;
    return;
  }
  play(*msg);
}

ToneBank& ToneBank::global() {
  static ToneBank bank;
  return bank;
}

std::shared_ptr<const audio::Waveform> ToneBank::tone(
    const audio::ToneSpec& spec, double sample_rate) {
  const Key key{std::bit_cast<std::uint64_t>(spec.frequency_hz),
                std::bit_cast<std::uint64_t>(spec.duration_s),
                std::bit_cast<std::uint64_t>(spec.amplitude),
                std::bit_cast<std::uint64_t>(spec.fade_s),
                std::bit_cast<std::uint64_t>(sample_rate)};
  common::MutexLock lock(mu_);
  auto& tone = tones_[key];
  if (!tone) {
    tone = std::make_shared<const audio::Waveform>(
        audio::make_tone(spec, sample_rate));
  }
  return tone;
}

std::size_t ToneBank::size() const {
  common::MutexLock lock(mu_);
  return tones_.size();
}

void PiSpeakerBridge::play(const MpMessage& msg) {
  const double start_s =
      net::to_seconds(loop_.now() + processing_delay_);
  audio::EmissionTag tag{};
  obs::Journal& journal = obs::Journal::global();
  if (journal.enabled()) {
    // Ground truth for the scoreboard: this exact tone left this
    // speaker at this sim time.  The minted id rides the emission so
    // detections (and rt drops) can cite it.
    obs::JournalRecord record;
    record.kind = obs::JournalKind::kToneEmitted;
    record.sim_ns = loop_.now() + processing_delay_;
    record.frequency_hz = msg.frequency_hz;
    record.value = msg.intensity_db_spl;
    record.aux = source_;
    record.mic = journal_mic_;
    obs::set_journal_label(record, channel_.source_name(source_));
    tag = {journal.append(record), msg.frequency_hz};
  }
  audio::ToneSpec spec;
  spec.frequency_hz = msg.frequency_hz;
  spec.duration_s = msg.duration_s;
  spec.amplitude = audio::spl_to_amplitude(msg.intensity_db_spl);
  // Generous raised-cosine fades: a tone whose onset or offset lands
  // inside a listening block would otherwise splatter energy across the
  // 20 Hz frequency grid and register as other devices' symbols.
  spec.fade_s = std::min(0.015, msg.duration_s / 3.0);
  channel_.emit(source_,
                ToneBank::global().tone(spec, channel_.sample_rate()),
                start_s, tag);
  ++played_;
  played_counter_->inc();
}

MpEmitter::MpEmitter(net::EventLoop& loop, PiSpeakerBridge& bridge,
                     net::SimTime min_gap)
    : loop_(loop),
      bridge_(bridge),
      min_gap_(min_gap),
      emitted_counter_(&obs::Registry::global().counter("mp/emitter/emitted")),
      suppressed_counter_(
          &obs::Registry::global().counter("mp/emitter/suppressed")) {}

bool MpEmitter::emit(double frequency_hz, double duration_s,
                     double intensity_db_spl) {
  if (!admit()) return false;
  send(frequency_hz, duration_s, intensity_db_spl);
  return true;
}

bool MpEmitter::admit() {
  const net::SimTime now = loop_.now();
  if (last_emit_ >= 0 && now - last_emit_ < min_gap_) {
    ++suppressed_;
    suppressed_counter_->inc();
    return false;
  }
  last_emit_ = now;
  return true;
}

void MpEmitter::send(double frequency_hz, double duration_s,
                     double intensity_db_spl) {
  MpMessage msg;
  msg.frequency_hz = frequency_hz;
  msg.duration_s = duration_s;
  msg.intensity_db_spl = intensity_db_spl;
  msg.sequence = next_sequence_++;
  // Marshal/unmarshal round trip on purpose: experiments exercise the
  // same wire path the firmware uses.
  bridge_.on_wire(marshal(msg));
  ++emitted_;
  emitted_counter_->inc();
}

}  // namespace mdn::mp
