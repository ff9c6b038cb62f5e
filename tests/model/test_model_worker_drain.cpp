// Model-checked shutdown protocol of rt::WorkerPool.  One producer
// publishes a last block and then calls finish() (the release store of
// WorkerPool::finish); one worker visits the microphone with a
// drain-or-close step until it closes it.  A closed microphone is never
// visited again, so a block still in its ring is lost
// (processed + dropped != submitted).
//
// The real rt::drain_or_close must keep every block across all explored
// interleavings; the step as first written — the flag read after an
// empty drain — must yield a replayable counterexample.

#include <gtest/gtest.h>

#include <array>
#include <span>

#include "common/atomic.h"
#include "common/check.h"
#include "model_test_util.h"
#include "rt/ring_buffer.h"
#include "rt/worker_pool.h"

namespace mdn {
namespace {

using DrainFn = rt::DrainStep (*)(rt::RingBuffer<int>&,
                                  const check::Atomic<bool>&,
                                  std::span<int>);

rt::DrainStep drain_then_read_flag(rt::RingBuffer<int>& ring,
                                   const check::Atomic<bool>& producers_done,
                                   std::span<int> out) {
  rt::DrainStep step;
  while (step.popped < out.size() && ring.try_pop(out[step.popped])) {
    ++step.popped;
  }
  step.closed = step.popped == 0 &&
                producers_done.load(std::memory_order_acquire);
  return step;
}

void drain_body(DrainFn drain) {
  rt::RingBuffer<int> ring(2);
  ring.name_for_model("tail", "head", "slot.seq");
  check::Atomic<bool> producers_done{false};
  check::name(&producers_done, "producers_done");
  check::thread producer([&] {
    MDN_CHECK(ring.try_push(7));
    producers_done.store(true, std::memory_order_release);  // finish()
  });
  // Bounded visits: an unbounded worker loop would livelock the
  // serialized scheduler.
  std::array<int, 2> batch{};
  std::size_t drained = 0;
  bool closed = false;
  for (int visit = 0; visit < 4 && !closed; ++visit) {
    const rt::DrainStep step = drain(ring, producers_done, batch);
    drained += step.popped;
    closed = step.closed;
  }
  producer.join();
  if (closed) {
    MDN_CHECK(drained == 1);  // no block left in a closed mic's ring
    MDN_CHECK(ring.empty());
  }
}

check::Options raw_interleavings() {
  check::Options options;
  options.sleep_sets = false;  // count raw interleavings
  return options;
}

TEST(ModelWorkerDrain, FinishNeverStrandsABlockInAClosedRing) {
  const check::Result result = check::explore(
      raw_interleavings(), [] { drain_body(&rt::drain_or_close<int>); });
  model::expect_exhaustive(result);
}

TEST(ModelWorkerDrain, FlagReadAfterTheDrainIsCaughtWithReplayableTrace) {
  const check::Options options = raw_interleavings();
  const auto body = [] { drain_body(&drain_then_read_flag); };
  const check::Result result = check::explore(options, body);
  ASSERT_FALSE(result.ok)
      << "the checker missed the close-before-drain interleaving";
  EXPECT_NE(result.first_failure.find("drained == 1"), std::string::npos)
      << result.first_failure;
  model::expect_caught_and_replayable(options, result, body);
}

}  // namespace
}  // namespace mdn
