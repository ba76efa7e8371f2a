// SPDX-License-Identifier: MIT

#include "net/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace scec::net {
namespace {

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.Add(3'000'000, [&] { fired.push_back(3); });
  wheel.Add(1'000'000, [&] { fired.push_back(1); });
  wheel.Add(2'000'000, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_EQ(wheel.Advance(500'000), 0u);
  EXPECT_EQ(wheel.Advance(10'000'000), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, SameDeadlineFiresInInsertionOrder) {
  // Mirrors the simulator's FIFO tie-break so transports agree on ordering.
  TimerWheel wheel;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    wheel.Add(1'000'000, [&fired, i] { fired.push_back(i); });
  }
  wheel.Advance(2'000'000);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  int fired = 0;
  uint64_t keep = wheel.Add(1'000'000, [&] { ++fired; });
  uint64_t cancel = wheel.Add(1'000'000, [&] { fired += 100; });
  EXPECT_TRUE(wheel.Cancel(cancel));
  EXPECT_FALSE(wheel.Cancel(cancel));  // already gone
  wheel.Advance(2'000'000);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.Cancel(keep));  // already fired
}

TEST(TimerWheel, NextDeadlineTracksEarliest) {
  TimerWheel wheel;
  EXPECT_EQ(wheel.NextDeadlineNs(), UINT64_MAX);
  wheel.Add(5'000'000, [] {});
  uint64_t id = wheel.Add(2'000'000, [] {});
  EXPECT_EQ(wheel.NextDeadlineNs(), 2'000'000u);
  wheel.Cancel(id);
  EXPECT_EQ(wheel.NextDeadlineNs(), 5'000'000u);
}

TEST(TimerWheel, DistantDeadlinesDoNotFireEarly) {
  // A deadline seconds away must survive many intermediate advances (a
  // hashed wheel of 1024 1 ms slots would pass its slot twice).
  TimerWheel wheel;
  int fired = 0;
  wheel.Add(2'000'000'000, [&] { ++fired; });  // 2s
  for (uint64_t now = 0; now <= 1'500'000'000; now += 100'000'000) {
    wheel.Advance(now);
  }
  EXPECT_EQ(fired, 0);
  wheel.Advance(2'100'000'000);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelAfterAdvanceStopsAPendingTimer) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.Add(1'000'000, [&] { fired.push_back(1); });
  const uint64_t later = wheel.Add(5'000'000, [&] { fired.push_back(5); });
  wheel.Add(7'000'000, [&] { fired.push_back(7); });
  EXPECT_EQ(wheel.Advance(2'000'000), 1u);
  EXPECT_TRUE(wheel.Cancel(later));
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(wheel.NextDeadlineNs(), 7'000'000u);
  EXPECT_EQ(wheel.Advance(10'000'000), 1u);
  EXPECT_EQ(fired, (std::vector<int>{1, 7}));
}

TEST(TimerWheel, CancelOfAFiredIdFails) {
  TimerWheel wheel;
  int fired = 0;
  const uint64_t first = wheel.Add(1'000'000, [&] { ++fired; });
  uint64_t second = 0;
  // A callback cancelling an entry of its own due batch is too late: the
  // batch was taken out before the first callback ran.
  wheel.Add(1'000'000, [&] { EXPECT_FALSE(wheel.Cancel(second)); });
  second = wheel.Add(1'000'000, [&] { fired += 10; });
  EXPECT_EQ(wheel.Advance(1'000'000), 3u);
  EXPECT_EQ(fired, 11);
  EXPECT_FALSE(wheel.Cancel(first));
  EXPECT_FALSE(wheel.Cancel(second));
  EXPECT_FALSE(wheel.Cancel(12345));  // never issued
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.NextDeadlineNs(), UINT64_MAX);
}

TEST(TimerWheel, ManyTimersInOneTickFireByDeadlineThenInsertion) {
  // 300 timers inside one 1 ms tick, deadlines out of order with repeats,
  // every third one cancelled.
  TimerWheel wheel;
  std::vector<std::pair<uint64_t, int>> expected;
  std::vector<int> fired;
  for (int i = 0; i < 300; ++i) {
    const uint64_t deadline = 4'000'000 + 997 * ((7 * i) % 50);
    const uint64_t id =
        wheel.Add(deadline, [&fired, i] { fired.push_back(i); });
    if (i % 3 == 0) {
      EXPECT_TRUE(wheel.Cancel(id));
    } else {
      expected.emplace_back(deadline, i);
    }
  }
  EXPECT_EQ(wheel.pending(), 200u);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  EXPECT_EQ(wheel.NextDeadlineNs(), expected.front().first);
  EXPECT_EQ(wheel.Advance(4'999'999), 200u);
  std::vector<int> order;
  for (const auto& entry : expected) order.push_back(entry.second);
  EXPECT_EQ(fired, order);
}

TEST(TimerWheel, NextDeadlineAfterCancellingTheEarliest) {
  TimerWheel wheel;
  const uint64_t a = wheel.Add(3'000'000, [] {});
  const uint64_t b = wheel.Add(3'000'000, [] {});
  const uint64_t c = wheel.Add(9'000'000, [] {});
  wheel.Add(2'000'000'000, [] {});
  EXPECT_EQ(wheel.NextDeadlineNs(), 3'000'000u);
  EXPECT_TRUE(wheel.Cancel(a));
  EXPECT_EQ(wheel.NextDeadlineNs(), 3'000'000u);  // b shares the deadline
  EXPECT_TRUE(wheel.Cancel(b));
  EXPECT_EQ(wheel.NextDeadlineNs(), 9'000'000u);
  EXPECT_TRUE(wheel.Cancel(c));
  EXPECT_EQ(wheel.NextDeadlineNs(), 2'000'000'000u);
  EXPECT_EQ(wheel.Advance(1'000'000'000), 0u);
  EXPECT_EQ(wheel.NextDeadlineNs(), 2'000'000'000u);
}

struct LoopRig {
  EventLoop loop;
  std::thread thread;
  LoopRig() : thread([this] { loop.Run(); }) {}
  ~LoopRig() {
    loop.Stop();
    thread.join();
  }
};

TEST(EventLoop, PostRunsOnLoopThreadInOrder) {
  LoopRig rig;
  std::vector<int> order;
  std::atomic<bool> done{false};
  std::atomic<bool> in_loop{false};
  for (int i = 0; i < 10; ++i) {
    rig.loop.Post([&, i] {
      order.push_back(i);
      if (i == 9) {
        in_loop.store(rig.loop.InLoopThread());
        done.store(true);
      }
    });
  }
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(in_loop.load());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventLoop, TimersFireWithRoughlyCorrectDelay) {
  LoopRig rig;
  std::atomic<bool> fired{false};
  const double start = EventLoop::Now();
  rig.loop.Post([&] {
    rig.loop.AddTimer(0.03, [&] { fired.store(true); });
  });
  while (!fired.load()) std::this_thread::yield();
  const double elapsed = EventLoop::Now() - start;
  EXPECT_GE(elapsed, 0.025);
  EXPECT_LT(elapsed, 2.0);  // sanity ceiling for loaded CI machines
}

TEST(EventLoop, CancelTimerFromLoopThread) {
  LoopRig rig;
  std::atomic<int> fired{0};
  std::atomic<bool> armed{false};
  rig.loop.Post([&] {
    uint64_t id = rig.loop.AddTimer(10.0, [&] { fired.fetch_add(1); });
    EXPECT_TRUE(rig.loop.CancelTimer(id));
    rig.loop.AddTimer(0.01, [&] { fired.fetch_add(10); });
    armed.store(true);
  });
  while (!armed.load() || fired.load() == 0) std::this_thread::yield();
  EXPECT_EQ(fired.load(), 10);  // only the short timer fired
}

TEST(Strand, SerializesCrossThreadPosts) {
  LoopRig rig;
  Strand strand(&rig.loop);
  std::vector<int> order;
  std::atomic<int> completed{0};
  constexpr int kPerThread = 50;
  // Two producer threads; the strand must run every task on the loop
  // thread, never concurrently, preserving each producer's FIFO order.
  auto produce = [&](int base) {
    for (int i = 0; i < kPerThread; ++i) {
      strand.Post([&, base, i] {
        order.push_back(base + i);
        completed.fetch_add(1);
      });
    }
  };
  std::thread a(produce, 0);
  std::thread b(produce, 1000);
  a.join();
  b.join();
  while (completed.load() < 2 * kPerThread) std::this_thread::yield();
  ASSERT_EQ(order.size(), size_t{2 * kPerThread});
  // Per-producer order preserved.
  int last_a = -1, last_b = 999;
  for (int value : order) {
    if (value < 1000) {
      EXPECT_GT(value, last_a);
      last_a = value;
    } else {
      EXPECT_GT(value, last_b);
      last_b = value;
    }
  }
}

}  // namespace
}  // namespace scec::net
