// Sharded detection workers for the streaming runtime.
//
// Microphones are sharded over workers by `mic % workers`, so every
// microphone's blocks are consumed by exactly one thread: the per-mic
// ring stays single-producer/single-consumer on the hot path, and the
// per-mic onset state machine (which watch frequencies were present in
// the previous block) needs no synchronisation at all.  All workers
// share one const ToneDetector — its detect_into() is thread-safe with
// thread-local scratch (see tone_detector.h) — and push onsets into the
// OrderedMerge, which restores the canonical (seq, mic, watch) order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "audio/emission_tag.h"
#include "common/annotations.h"
#include "common/atomic.h"
#include "mdn/tone_detector.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "rt/ordered_merge.h"
#include "rt/ring_buffer.h"

namespace mdn::rt {

/// How submit behaves when a microphone's ring is full.
enum class DropPolicy {
  kBlock,       ///< spin until the worker frees a slot (lossless)
  kDropOldest,  ///< reclaim the stalest queued block, keep the new one
  kDropNewest,  ///< discard the incoming block, keep the queue
};

/// One microphone block in flight: per-mic sequence number, source id,
/// block start time and the samples (a recycled buffer owned by value).
/// `tags` carries up to 8 ground-truth emission tags overlapping the
/// block (journal provenance; fixed-size so the ring slot stays
/// allocation-free and trivially recyclable).
struct AudioBlock {
  std::uint64_t seq = 0;
  std::uint32_t mic = 0;
  double start_s = 0.0;
  std::vector<double> samples;
  std::array<audio::EmissionTag, 8> tags{};
  std::uint8_t tag_count = 0;
  /// kBlockIngested journal id minted at submit (0 = journal off or
  /// untagged block); rides to the worker so detections can cite the
  /// capture hop via StreamEvent::ingest.
  std::uint64_t ingest = 0;
};

/// The SPSC lane between one microphone's producer and its shard worker.
struct MicQueue {
  explicit MicQueue(std::size_t capacity) : ring(capacity) {}
  RingBuffer<AudioBlock> ring;
  obs::Gauge* depth = nullptr;  ///< "rt/mic/<i>/queue_depth"
};

/// One worker visit to one microphone's ring: the blocks it popped, and
/// whether the microphone is finished.
struct DrainStep {
  std::size_t popped = 0;
  bool closed = false;
};

/// Pops up to `out.size()` ready blocks of one ring into `out` (seq
/// order).  The flag is loaded BEFORE the drain, so the mic closes only
/// when a pop came back empty after `producers_done` was seen: loaded
/// after it, a producer could publish a last block and finish() between
/// the empty pop and the load, stranding the block in a closed ring
/// (tests/model/test_model_worker_drain.cpp).
template <typename T>
MDN_REALTIME DrainStep drain_or_close(RingBuffer<T>& ring,
                                      const check::Atomic<bool>& producers_done,
                                      std::span<T> out) MDN_CHECK_NOEXCEPT {
  // mo: pairs with finish()'s release store — every block pushed before finish() is visible to the drain below
  const bool done = producers_done.load(std::memory_order_acquire);
  DrainStep step;
  while (step.popped < out.size() && ring.try_pop(out[step.popped])) {
    ++step.popped;
  }
  step.closed = step.popped == 0 && done;
  return step;
}

class WorkerPool {
 public:
  /// `detector`, `queues`, `merge` (and `health`, when set) must outlive
  /// the pool.  The watch list is copied; onset matching uses the
  /// detector's tolerance.  A non-null `health` receives per-block
  /// estimator updates for every microphone (health->estimator(mic) must
  /// exist for every queue); each mic's estimator is touched only by the
  /// worker owning that mic, preserving the single-writer contract.
  WorkerPool(const core::ToneDetector& detector,
             std::vector<double> watch_hz,
             std::vector<std::unique_ptr<MicQueue>>& queues,
             OrderedMerge& merge,
             RingBuffer<std::vector<double>>& free_buffers,
             std::size_t workers,
             obs::Health* health = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the workers and blocks until every one has finished its
  /// thread-local warm-up (plan tables, SIMD dispatch, detect scratch),
  /// so the multi-millisecond first-detect costs land here — before the
  /// caller starts timing — not in the first processed block.
  void start();

  /// Producers promise not to submit again; workers drain their rings,
  /// close their microphones in the merge and exit.
  // mo: release pairs with the workers' acquire — every block pushed before finish() is visible to the drain pass
  void finish() noexcept { producers_done_.store(true, std::memory_order_release); }

  void join();

  std::uint64_t blocks_processed() const noexcept {
    // mo: monitoring counter, no ordering needed with other state
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  void run_worker(std::size_t index);
  /// The worker-side hot path for one block: detect_into, then
  /// core::match_watches + merge-push, then the watermark advance.
  /// `tones` is the worker's grow-once tone vector.  Steady-state
  /// allocation-free (audited in tests/rt).
  MDN_REALTIME void process_block(AudioBlock& block,
                                  std::vector<core::DetectedTone>& tones,
                                  std::span<char> latch,
                                  obs::Histogram* wall_ns);

  const core::ToneDetector& detector_;
  std::vector<double> watch_hz_;
  std::vector<std::unique_ptr<MicQueue>>& queues_;
  OrderedMerge& merge_;
  RingBuffer<std::vector<double>>& free_buffers_;
  std::size_t workers_;
  obs::Health* health_;

  std::vector<std::thread> threads_;
  // latch_[mic][watch]: tone present in the previous block (the onset
  // latch of core::match_watches).  Each row is touched only by the
  // worker that owns the microphone.
  std::vector<std::vector<char>> latch_;
  check::Atomic<bool> producers_done_{false};
  std::atomic<std::size_t> warmed_{0};
  std::atomic<std::uint64_t> processed_{0};
  obs::Counter* processed_counter_;
  obs::Counter* events_counter_;
  std::vector<obs::Histogram*> block_wall_ns_;  // per worker
};

}  // namespace mdn::rt
