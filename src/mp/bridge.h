// Pi/speaker bridge and switch-side tone emitter.
//
// In the paper's testbed (Fig 1), each switch owns a Raspberry Pi wired to
// a cheap speaker: firmware marshals an MP message, the Pi unmarshals it
// and keys a tone.  PiSpeakerBridge is that Pi; MpEmitter is the firmware
// hook, with the rate policing a 120 KB-RAM device needs so back-to-back
// events cannot queue unbounded sound.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "audio/channel.h"
#include "audio/synth.h"
#include "common/mutex.h"
#include "mp/message.h"
#include "net/event_loop.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace mdn::mp {

/// Process-wide bank of synthesised tones, shared by every bridge: rooms
/// reuse one frequency plan, so a fleet's speakers play the same few
/// hundred tones.  Each distinct (spec, sample rate) is synthesised once
/// and its immutable samples are shared by every later play, so the bank
/// holds one entry per distinct key ever played.
class ToneBank {
 public:
  ToneBank() = default;
  ToneBank(const ToneBank&) = delete;
  ToneBank& operator=(const ToneBank&) = delete;

  static ToneBank& global();

  /// The samples of `spec` at `sample_rate`, synthesised on first use.
  std::shared_ptr<const audio::Waveform> tone(const audio::ToneSpec& spec,
                                              double sample_rate);

  /// Number of distinct tones held.
  std::size_t size() const;

 private:
  /// Bit patterns of the ToneSpec fields the samples depend on
  /// (frequency, duration, amplitude, fade; phase is always 0) and of
  /// the sample rate.
  using Key = std::array<std::uint64_t, 5>;

  mutable common::Mutex mu_;
  std::map<Key, std::shared_ptr<const audio::Waveform>> tones_
      MDN_GUARDED_BY(mu_);
};

class PiSpeakerBridge {
 public:
  /// `source` must have been registered on `channel`; `processing_delay`
  /// models the Pi's receive-decode-play latency.
  PiSpeakerBridge(net::EventLoop& loop, audio::AcousticChannel& channel,
                  audio::SourceId source,
                  net::SimTime processing_delay = 2 * net::kMillisecond);

  /// Delivers a marshaled MP wire buffer (the lwIP path).  Malformed
  /// buffers are counted and ignored.
  void on_wire(std::span<const std::uint8_t> wire);

  /// Delivers an already-decoded message.  The tone's samples come from
  /// ToneBank::global(), shared with every other play of the same
  /// (frequency, duration, intensity) at this channel's sample rate.
  void play(const MpMessage& msg);

  /// Scopes this bridge's kToneEmitted records to one microphone.  By
  /// default emissions carry no mic and the scoreboard treats them as
  /// ground truth for every mic (single-room semantics); a fleet bridge
  /// tags its room's mic so other rooms don't score its tones as misses.
  void set_journal_mic(std::uint32_t mic) noexcept { journal_mic_ = mic; }

  std::uint64_t played() const noexcept { return played_; }
  std::uint64_t malformed() const noexcept { return malformed_; }
  MpError last_error() const noexcept { return last_error_; }

 private:
  net::EventLoop& loop_;
  audio::AcousticChannel& channel_;
  audio::SourceId source_;
  net::SimTime processing_delay_;
  std::uint32_t journal_mic_ = obs::kJournalNoMic;
  std::uint64_t played_ = 0;
  std::uint64_t malformed_ = 0;
  MpError last_error_ = MpError::kNone;
  obs::Counter* played_counter_;
  obs::Counter* malformed_counter_;
};

/// Switch-side emitter: builds MP messages, marshals them and hands the
/// wire bytes to the bridge (exactly the firmware -> Pi path).  Enforces a
/// minimum gap between emissions so a packet burst cannot produce an
/// unbounded tone pile-up.
class MpEmitter {
 public:
  MpEmitter(net::EventLoop& loop, PiSpeakerBridge& bridge,
            net::SimTime min_gap = 0);

  /// Emits a tone now (subject to the rate police).  Returns false when
  /// suppressed by the minimum-gap policy.  Same as admit(), then send()
  /// when admitted.
  bool emit(double frequency_hz, double duration_s, double intensity_db_spl);

  /// The rate police alone: claims the emission slot at the current sim
  /// time and returns true, or counts a suppression and returns false.
  /// Lets a hook skip computing a tone that would be suppressed anyway.
  bool admit();

  /// Marshals and plays a tone in the slot admit() just claimed.
  void send(double frequency_hz, double duration_s, double intensity_db_spl);

  std::uint64_t emitted() const noexcept { return emitted_; }
  std::uint64_t suppressed() const noexcept { return suppressed_; }

 private:
  net::EventLoop& loop_;
  PiSpeakerBridge& bridge_;
  net::SimTime min_gap_;
  net::SimTime last_emit_ = -1;
  std::uint16_t next_sequence_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_ = 0;
  obs::Counter* emitted_counter_;
  obs::Counter* suppressed_counter_;
};

}  // namespace mdn::mp
