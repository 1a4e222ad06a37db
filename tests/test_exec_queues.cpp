// Unit tests for the event-driven scheduler's ReadyQueue time wheel —
// including regression pins for the cursor placement in wake(): the first
// wake into an empty wheel places the cursor (a restore or a compiled
// scheduler jump reseeds a cleared wheel far from where it stood), and a
// wake behind a cursor nextTime() already scanned forward snaps it back.
// Scanning from a stale cursor would miss or alias the entry.
#include <gtest/gtest.h>

#include <vector>

#include "exec/ready_queue.hpp"

namespace valpipe::exec {
namespace {

TEST(ReadyQueue, PopsWakesInTimeOrderDeduplicated) {
  ReadyQueue q(/*cells=*/4, /*horizon=*/8);
  q.wake(2, 5);
  q.wake(0, 3);
  q.wake(1, 3);
  q.wake(1, 3);  // push-side duplicate: same cell, same time
  std::vector<std::uint32_t> out;
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.nextTime(), 3);
  EXPECT_EQ(q.pop(out), 3);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(q.pop(out), 5);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(q.empty());
}

// Regression pin: wake() must snap the scan cursor back when an entry lands
// below it.  nextTime() scans the cursor forward over empty buckets; a later
// wake can then land behind the scanned-ahead cursor.  Without the snap-back
// the wheel would skip the bucket (or alias it a full ring lap later).
TEST(ReadyQueue, WakeBelowScannedCursorIsStillFound) {
  ReadyQueue q(/*cells=*/4, /*horizon=*/8);
  std::vector<std::uint32_t> out;
  // Advance the cursor well past the start by processing a late entry.
  q.wake(0, 9);
  EXPECT_EQ(q.pop(out), 9);  // cursor is now 10
  EXPECT_TRUE(q.empty());
  // A wake behind the scanned-ahead cursor.
  q.wake(1, 4);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.nextTime(), 4);  // not 4 + ring-size, and not skipped
  EXPECT_EQ(q.pop(out), 4);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(ReadyQueue, WakeBelowCursorWhileNonEmptyStaysExact) {
  ReadyQueue q(/*cells=*/4, /*horizon=*/16);
  std::vector<std::uint32_t> out;
  q.wake(0, 12);
  EXPECT_EQ(q.nextTime(), 12);  // cursor scanned forward to 12
  q.wake(1, 7);                 // below the scanned cursor, wheel non-empty
  EXPECT_EQ(q.pop(out), 7);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(q.pop(out), 12);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
}

TEST(ReadyQueue, FirstWakeIntoEmptyWheelPlacesCursor) {
  ReadyQueue q(/*cells=*/2, /*horizon=*/8);
  std::vector<std::uint32_t> out;
  q.wake(0, 2);
  EXPECT_EQ(q.pop(out), 2);
  // Resume far past the ring size, as a restore or a jump reseeds the
  // wheel: the first wake into the empty wheel moves the cursor there.
  q.wake(1, 1003);
  EXPECT_EQ(q.nextTime(), 1003);
  EXPECT_EQ(q.pop(out), 1003);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(ReadyQueue, SameCellReexaminedAtManyTimesAcrossRingLaps) {
  ReadyQueue q(/*cells=*/1, /*horizon=*/4);
  std::vector<std::uint32_t> out;
  // Push/pop the same cell across several laps of the (small) ring.
  std::int64_t t = 0;
  for (int lap = 0; lap < 50; ++lap) {
    q.wake(0, t + 3);
    EXPECT_EQ(q.pop(out), t + 3) << "lap " << lap;
    EXPECT_EQ(out.size(), 1u);
    t += 3;
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace valpipe::exec
