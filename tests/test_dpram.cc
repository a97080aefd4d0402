// Unit tests for the dual-port RAM and both queue disciplines.
#include <gtest/gtest.h>

#include "dpram/dpram.h"
#include "dpram/lockq.h"
#include "dpram/queue.h"
#include "sim/engine.h"

namespace osiris::dpram {
namespace {

TEST(DualPortRam, ReadWriteAndAccessCounting) {
  DualPortRam ram;
  ram.write(Side::kHost, 10, 0xABCD);
  EXPECT_EQ(ram.read(Side::kBoard, 10), 0xABCDu);
  EXPECT_EQ(ram.host_accesses(), 1u);
  EXPECT_EQ(ram.board_accesses(), 1u);
  EXPECT_THROW(ram.read(Side::kHost, kDpramWords), std::out_of_range);
}

TEST(ChannelLayout, SixteenPairsFitTheDualPortRam) {
  for (std::uint32_t i = 0; i < kPagesPerHalf; ++i) {
    const ChannelLayout cl = channel_layout(i);
    EXPECT_LE(cl.tx.base_word + cl.tx.words(), (i + 1) * kPageWords);
    EXPECT_GE(cl.free.base_word, kPagesPerHalf * kPageWords);
    EXPECT_LE(cl.recv.base_word + cl.recv.words(), kDpramWords);
    EXPECT_EQ(cl.tx.capacity, 64u);
  }
  EXPECT_THROW(channel_layout(16), std::out_of_range);
}

TEST(LockFreeQueue, PushPopRoundTrip) {
  DualPortRam ram;
  const QueueLayout lay = channel_layout(0).tx;
  QueueWriter w(ram, lay, Side::kHost);
  QueueReader r(ram, lay, Side::kBoard);
  EXPECT_TRUE(r.empty());
  const Descriptor d{0x1000, 256, 42, kDescEop, 7};
  EXPECT_TRUE(w.push(d).ok);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(w.size(), 1u);
  const auto got = r.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, d);
  EXPECT_TRUE(r.empty());
}

TEST(LockFreeQueue, FullSemanticsHoldCapacityMinusOne) {
  DualPortRam ram;
  const QueueLayout lay{0, 8};
  QueueWriter w(ram, lay, Side::kHost);
  QueueReader r(ram, lay, Side::kBoard);
  int pushed = 0;
  while (!w.full()) {
    EXPECT_TRUE(w.push({static_cast<std::uint32_t>(pushed), 1, 0, 0, 0}).ok);
    ++pushed;
  }
  EXPECT_EQ(pushed, 7);  // capacity - 1
  EXPECT_FALSE(w.push({99, 1, 0, 0, 0}).ok);
  EXPECT_TRUE(r.pop().has_value());
  EXPECT_FALSE(w.full());
}

TEST(LockFreeQueue, FifoOrderAcrossWraparound) {
  DualPortRam ram;
  const QueueLayout lay{0, 5};
  QueueWriter w(ram, lay, Side::kHost);
  QueueReader r(ram, lay, Side::kBoard);
  std::uint32_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 23; ++round) {
    while (!w.full()) w.push({next_push++, 4, 0, 0, 0});
    while (const auto d = r.pop()) EXPECT_EQ(d->addr, next_pop++);
  }
  EXPECT_EQ(next_push, next_pop);
}

TEST(LockFreeQueue, AccessCountsMatchPaperGoal) {
  // §2.1: minimize loads/stores. A push is 6 accesses (tail read, 4
  // descriptor words, head write); a pop likewise.
  DualPortRam ram;
  const QueueLayout lay{0, 16};
  QueueWriter w(ram, lay, Side::kHost);
  QueueReader r(ram, lay, Side::kBoard);
  const auto pr = w.push({1, 2, 3, 0, 4});
  EXPECT_EQ(pr.ram_accesses, 6u);
  OpResult res;
  r.pop(&res);
  EXPECT_EQ(res.ram_accesses, 6u);
}

TEST(LockFreeQueue, PeekAtAndDeferredAdvance) {
  DualPortRam ram;
  const QueueLayout lay{0, 8};
  QueueWriter w(ram, lay, Side::kHost);
  QueueReader r(ram, lay, Side::kBoard);
  for (std::uint32_t i = 0; i < 3; ++i) w.push({i, 1, 0, 0, 0});
  EXPECT_EQ(r.peek_at(0)->addr, 0u);
  EXPECT_EQ(r.peek_at(2)->addr, 2u);
  EXPECT_FALSE(r.peek_at(3).has_value());
  // consume() moves the reader's view; publish() moves the host's.
  const std::uint32_t t1 = r.consume(2);
  EXPECT_EQ(r.peek_at(0)->addr, 2u);
  EXPECT_EQ(w.size(), 3u);  // host still sees 3 outstanding
  r.publish(t1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(LockFreeQueue, ConcurrentInterleavingIsConsistent) {
  // Simulated concurrency: interleave pushes and pops arbitrarily; the
  // one-reader-one-writer discipline guarantees consistency.
  DualPortRam ram;
  const QueueLayout lay{0, 4};
  QueueWriter w(ram, lay, Side::kHost);
  QueueReader r(ram, lay, Side::kBoard);
  std::uint32_t pushed = 0, popped = 0;
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 != 0) {
      if (!w.full()) w.push({pushed++, 1, 0, 0, 0});
    } else {
      if (const auto d = r.pop()) {
        EXPECT_EQ(d->addr, popped++);
      }
    }
  }
  while (const auto d = r.pop()) EXPECT_EQ(d->addr, popped++);
  EXPECT_EQ(pushed, popped);
}

TEST(LockedQueue, PushPopUnderLock) {
  sim::Engine eng;
  DualPortRam ram;
  TestAndSetLock lock(eng, "tas");
  const QueueLayout lay{0, 8};
  LockedQueue q(ram, lay, lock);
  const sim::Duration acc = sim::ns(100);
  sim::Tick done = 0;
  const auto rel = q.push(Side::kHost, 0, acc, {5, 6, 0, 0, 0});
  ASSERT_TRUE(rel.has_value());
  const auto d = q.pop(Side::kBoard, 0, acc, &done);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->addr, 5u);
  // The pop had to wait for the push's critical section.
  EXPECT_GE(done, *rel);
}

TEST(LockedQueue, ContentionSerializes) {
  // Two sides hammering the lock at the same instant: total time is the
  // sum of critical sections — the §2.1.1 argument for lock-free queues.
  sim::Engine eng;
  DualPortRam ram;
  TestAndSetLock lock(eng, "tas");
  const QueueLayout lay{0, 64};
  LockedQueue q(ram, lay, lock);
  const sim::Duration acc = sim::ns(200);
  sim::Tick last = 0;
  for (int i = 0; i < 10; ++i) {
    const auto r = q.push(Side::kHost, 0, acc, {1, 1, 0, 0, 0});
    ASSERT_TRUE(r.has_value());
    last = *r;
  }
  // 10 pushes all requested at t=0: each waits for the previous.
  EXPECT_EQ(last, 10 * acc * (3 + 6));
}

TEST(LockedQueue, FullAndEmptyStillCostALockRound) {
  sim::Engine eng;
  DualPortRam ram;
  TestAndSetLock lock(eng, "tas");
  const QueueLayout lay{0, 2};  // holds 1 entry
  LockedQueue q(ram, lay, lock);
  const sim::Duration acc = sim::ns(100);
  ASSERT_TRUE(q.push(Side::kHost, 0, acc, {1, 1, 0, 0, 0}).has_value());
  sim::Tick fail_at = 0;
  EXPECT_FALSE(q.push(Side::kHost, 0, acc, {2, 1, 0, 0, 0}, &fail_at).has_value());
  EXPECT_GT(fail_at, 0u);
  sim::Tick done = 0;
  EXPECT_TRUE(q.pop(Side::kBoard, 0, acc, &done).has_value());
  EXPECT_FALSE(q.pop(Side::kBoard, 0, acc, &done).has_value());
}

}  // namespace
}  // namespace osiris::dpram
