#include "rt/worker_pool.h"

#include <span>
#include <string>

#include "mdn/watch_matcher.h"
#include "obs/trace.h"

namespace mdn::rt {

WorkerPool::WorkerPool(const core::ToneDetector& detector,
                       std::vector<double> watch_hz,
                       std::vector<std::unique_ptr<MicQueue>>& queues,
                       OrderedMerge& merge,
                       RingBuffer<std::vector<double>>& free_buffers,
                       std::size_t workers,
                       obs::Health* health)
    : detector_(detector),
      watch_hz_(std::move(watch_hz)),
      queues_(queues),
      merge_(merge),
      free_buffers_(free_buffers),
      workers_(workers == 0 ? 1 : workers),
      health_(health) {
  auto& registry = obs::Registry::global();
  processed_counter_ = &registry.counter("rt/runtime/blocks_processed");
  events_counter_ = &registry.counter("rt/runtime/events");
  block_wall_ns_.reserve(workers_);
  for (std::size_t t = 0; t < workers_; ++t) {
    block_wall_ns_.push_back(&registry.histogram(
        "rt/worker/" + std::to_string(t) + "/block_wall_ns"));
  }
  latch_.resize(queues_.size());
  for (auto& row : latch_) row.assign(watch_hz_.size(), 0);
}

WorkerPool::~WorkerPool() {
  finish();
  join();
}

void WorkerPool::start() {
  if (!threads_.empty()) return;
  threads_.reserve(workers_);
  for (std::size_t t = 0; t < workers_; ++t) {
    threads_.emplace_back([this, t] { run_worker(t); });
  }
  // Warm-up handshake: don't return until every worker has built its
  // plan tables and thread-local scratch, so callers that time the
  // steady state (benches, latency SLOs) never see first-detect costs.
  // mo: pairs with each worker's release increment — warm-up writes (plans, scratch) are visible once the count matches
  while (warmed_.load(std::memory_order_acquire) < workers_) {
    std::this_thread::yield();
  }
}

void WorkerPool::join() {
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
}

void WorkerPool::run_worker(std::size_t index) {
  // All first-call costs — plan build, SIMD dispatch selection, this
  // thread's detect scratch — happen before the handshake completes, so
  // nothing multi-millisecond pollutes the first timed block.
  detector_.warm_up();
  // mo: release publishes this worker's warm-up state to start()'s acquire loop
  warmed_.fetch_add(1, std::memory_order_release);

  obs::Histogram* wall_ns = block_wall_ns_[index];
  AudioBlock block;
  std::vector<core::DetectedTone> tones;
  std::vector<char> closed(queues_.size(), 0);
  for (;;) {
    bool did_work = false;
    bool all_closed = true;
    for (std::size_t mic = index; mic < queues_.size(); mic += workers_) {
      if (closed[mic]) continue;
      MicQueue& q = *queues_[mic];
      // One ready block of this mic per visit, in seq order.
      const DrainStep step = drain_or_close(
          q.ring, producers_done_, std::span<AudioBlock>(&block, 1));
      if (step.popped > 0) {
        if (q.depth != nullptr) q.depth->add(-1);
        process_block(block, tones, latch_[mic], wall_ns);
        did_work = true;
        all_closed = false;
      } else if (step.closed) {
        // No producer will refill the ring: stop gating the watermark.
        merge_.close(static_cast<std::uint32_t>(mic));
        closed[mic] = 1;
      } else {
        all_closed = false;
      }
    }
    if (all_closed) break;
    if (!did_work) std::this_thread::yield();
  }
}

void WorkerPool::process_block(AudioBlock& block,
                               std::vector<core::DetectedTone>& tones,
                               std::span<char> latch,
                               obs::Histogram* wall_ns) {
  obs::Span span(wall_ns);
  // The same core::match_watches() as the inline controller, so the
  // merged stream equals it at any worker count.
  obs::BlockSignalStats stats;
  detector_.detect_into(block.samples, tones,
                        health_ != nullptr ? &stats : nullptr);

  obs::MicSignalEstimator* est = nullptr;
  if (health_ != nullptr) {
    // Health estimator updates ride the block in per-mic seq order —
    // the mic's single owning worker is the single writer, so the
    // estimator trajectory (and any alert it queues) is deterministic
    // regardless of worker count.
    const double rate = detector_.config().sample_rate;
    const double block_len_s =
        rate > 0.0 ? static_cast<double>(block.samples.size()) / rate : 0.0;
    est = &health_->estimator(block.mic);
    est->begin_block(block.start_s + block_len_s, stats);
  }
  // Journal records are minted on the owner thread at poll(), so the
  // hook mints none and the health evidence stays the emission tag.
  const auto to_merge = [&](const core::WatchOnset& onset) {
    merge_.push({block.seq, block.mic, static_cast<std::uint32_t>(onset.watch),
                 block.start_s, onset.frequency_hz, onset.amplitude,
                 onset.cause, block.ingest});
    return obs::CauseId{0};
  };
  const std::size_t events = core::match_watches(
      watch_hz_, tones,
      std::span<const audio::EmissionTag>(block.tags.data(), block.tag_count),
      detector_.config().match_tolerance_hz, latch, est, to_merge);
  if (est != nullptr) est->end_block();
  // Events of a block are pushed before the watermark moves past it —
  // the merge relies on this ordering.
  merge_.advance(block.mic, block.seq + 1);
  // Recycle the sample buffer; if the free ring is full the buffer is
  // simply deallocated (cold path).
  block.samples.clear();
  (void)free_buffers_.try_push(std::move(block.samples));

  // mo: monitoring counter, no ordering needed with other state
  processed_.fetch_add(1, std::memory_order_relaxed);
  processed_counter_->add(1);
  if (events > 0) events_counter_->add(events);
}

}  // namespace mdn::rt
