// SPDX-License-Identifier: MIT
//
// Async I/O core for the networked SCEC protocol: a single-threaded epoll
// event loop with
//
//   * fd readiness dispatch (level-triggered epoll),
//   * deadline timers (per-RPC deadlines, heartbeat intervals, reconnect
//     backoff — hundreds of timers, O(log n) add/cancel/next-deadline),
//   * a thread-safe Post() queue woken by an eventfd, and
//   * a Strand (serialized executor) for callers that need FIFO execution
//     of tasks submitted from multiple threads.
//
// The loop owns no sockets; BufferedSocket (net/socket.h) and the channel
// layer register fds against it. All fd/timer mutation must happen on the
// loop thread — cross-thread callers go through Post(), which is the only
// thread-safe entry point besides Stop().
//
// Mirrors the role EventQueue (sim/event_queue.h) plays for the simulator:
// same callback-scheduling shape, but driven by the kernel clock and real
// socket readiness instead of simulated time.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace scec::net {

// The loop's deadline timers, over absolute monotonic nanosecond deadlines
// (per-RPC deadlines, heartbeat intervals, reconnect backoff). Entries are
// kept sorted by (deadline, id), so firing pops the due prefix in deadline
// order with insertion order breaking ties (the simulator's FIFO tie-break),
// the next deadline is the first entry, and Cancel finds its entry through
// an id index: O(log n) each, and nothing walks idle time slots. Not
// thread-safe; owned and driven by EventLoop on its thread.
class TimerWheel {
 public:
  using Callback = std::function<void()>;

  // Registers `fn` to fire once `now_ns` reaches `deadline_ns`.
  uint64_t Add(uint64_t deadline_ns, Callback fn);
  // Returns false if the timer already fired or is unknown.
  bool Cancel(uint64_t id);

  // Fires every entry with deadline <= now_ns, in (deadline, insertion)
  // order. Entries that the callbacks add or cancel meanwhile do not change
  // this batch. Returns the number fired.
  size_t Advance(uint64_t now_ns);

  // Earliest pending deadline, or UINT64_MAX when empty.
  uint64_t NextDeadlineNs() const;

  size_t pending() const { return timers_.size(); }

 private:
  using Key = std::pair<uint64_t, uint64_t>;  // (deadline_ns, id)

  uint64_t next_id_ = 1;
  std::map<Key, Callback> timers_;
  std::unordered_map<uint64_t, uint64_t> deadline_of_;  // id -> deadline_ns
};

class EventLoop {
 public:
  using Callback = std::function<void()>;
  // `events` is the epoll event mask (EPOLLIN / EPOLLOUT / EPOLLERR / ...).
  using FdHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs until Stop(). Records the caller as the loop thread.
  void Run();
  // Thread-safe; the loop exits after finishing the current iteration.
  void Stop();

  // Thread-safe FIFO task submission; wakes the loop via eventfd.
  void Post(Callback fn);

  // Loop-thread only. Relative-delay timer (seconds, >= 0).
  uint64_t AddTimer(double delay_s, Callback fn);
  bool CancelTimer(uint64_t id);

  // Loop-thread only (except the first WatchFd before Run(), which is safe
  // because the loop is not polling yet).
  void WatchFd(int fd, bool want_read, bool want_write, FdHandler handler);
  void UpdateFd(int fd, bool want_read, bool want_write);
  void UnwatchFd(int fd);

  bool InLoopThread() const;
  // Monotonic clock, seconds. Valid on any thread.
  static double Now();
  static uint64_t NowNs();

 private:
  void Wakeup();
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread::id loop_thread_;

  TimerWheel timers_;

  std::mutex post_mutex_;
  std::deque<Callback> posted_;

  // fd -> handler; shared_ptr so a handler can UnwatchFd itself mid-call.
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
};

// Serialized executor: tasks posted from any thread run on the loop thread
// in FIFO order, never concurrently and never interleaved with each other.
// On a single-threaded loop this adds ordering across producer threads —
// e.g. the transport's user-facing API posting against channel callbacks.
class Strand {
 public:
  explicit Strand(EventLoop* loop);

  void Post(EventLoop::Callback fn);

 private:
  void Drain();

  EventLoop* loop_;
  std::mutex mutex_;
  std::deque<EventLoop::Callback> queue_;
  bool scheduled_ = false;  // a Drain() is posted or running
};

}  // namespace scec::net
