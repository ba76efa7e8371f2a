// SPDX-License-Identifier: MIT

#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"

namespace scec::net {

// ---------------------------------------------------------------------------
// TimerWheel

uint64_t TimerWheel::Add(uint64_t deadline_ns, Callback fn) {
  SCEC_CHECK(fn != nullptr);
  const uint64_t id = next_id_++;
  timers_.emplace(Key{deadline_ns, id}, std::move(fn));
  deadline_of_.emplace(id, deadline_ns);
  return id;
}

bool TimerWheel::Cancel(uint64_t id) {
  auto it = deadline_of_.find(id);
  if (it == deadline_of_.end()) return false;
  timers_.erase(Key{it->second, id});
  deadline_of_.erase(it);
  return true;
}

size_t TimerWheel::Advance(uint64_t now_ns) {
  // Take the whole due batch out first: a callback that cancels a due
  // entry is too late to stop it, and one that adds a due entry leaves it
  // for the next advance.
  std::vector<Callback> due;
  auto it = timers_.begin();
  for (; it != timers_.end() && it->first.first <= now_ns; ++it) {
    due.push_back(std::move(it->second));
    deadline_of_.erase(it->first.second);
  }
  timers_.erase(timers_.begin(), it);
  for (Callback& fn : due) fn();
  return due.size();
}

uint64_t TimerWheel::NextDeadlineNs() const {
  return timers_.empty() ? std::numeric_limits<uint64_t>::max()
                         : timers_.begin()->first.first;
}

// ---------------------------------------------------------------------------
// EventLoop

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  SCEC_CHECK_GE(epoll_fd_, 0) << "epoll_create1: " << std::strerror(errno);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  SCEC_CHECK_GE(wake_fd_, 0) << "eventfd: " << std::strerror(errno);
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  SCEC_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

double EventLoop::Now() {
  return static_cast<double>(NowNs()) * 1e-9;
}

uint64_t EventLoop::NowNs() {
  struct timespec ts {};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool EventLoop::InLoopThread() const {
  return running_.load(std::memory_order_acquire) &&
         std::this_thread::get_id() == loop_thread_;
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  // Best-effort: a full eventfd counter already guarantees a wakeup.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Post(Callback fn) {
  SCEC_CHECK(fn != nullptr);
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  Wakeup();
}

uint64_t EventLoop::AddTimer(double delay_s, Callback fn) {
  SCEC_CHECK_GE(delay_s, 0.0);
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(delay_s * 1e9);
  return timers_.Add(deadline, std::move(fn));
}

bool EventLoop::CancelTimer(uint64_t id) { return timers_.Cancel(id); }

void EventLoop::WatchFd(int fd, bool want_read, bool want_write,
                        FdHandler handler) {
  SCEC_CHECK_GE(fd, 0);
  SCEC_CHECK(handler != nullptr);
  SCEC_CHECK(handlers_.find(fd) == handlers_.end())
      << "fd " << fd << " already watched";
  struct epoll_event ev {};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  SCEC_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev), 0)
      << "epoll_ctl ADD fd " << fd << ": " << std::strerror(errno);
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
}

void EventLoop::UpdateFd(int fd, bool want_read, bool want_write) {
  struct epoll_event ev {};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  SCEC_CHECK_EQ(epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev), 0)
      << "epoll_ctl MOD fd " << fd << ": " << std::strerror(errno);
}

void EventLoop::UnwatchFd(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  handlers_.erase(it);
  // The fd may already be closed by the caller; ignore ENOENT/EBADF.
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::DrainPosted() {
  // Swap under the lock, run outside it: posted tasks may Post() again.
  std::deque<Callback> batch;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  for (Callback& fn : batch) fn();
}

void EventLoop::Run() {
  loop_thread_ = std::this_thread::get_id();
  running_.store(true, std::memory_order_release);
  std::vector<struct epoll_event> events(64);

  while (!stop_.load(std::memory_order_acquire)) {
    // Timeout: next timer deadline, capped so Stop() is honored promptly
    // even if a wakeup write races the flag.
    const uint64_t now = NowNs();
    const uint64_t next = timers_.NextDeadlineNs();
    int timeout_ms = 100;
    if (next != std::numeric_limits<uint64_t>::max()) {
      timeout_ms = next <= now
                       ? 0
                       : static_cast<int>(std::min<uint64_t>(
                             (next - now) / 1'000'000ULL + 1, 100));
    }
    {
      std::lock_guard<std::mutex> lock(post_mutex_);
      if (!posted_.empty()) timeout_ms = 0;
    }

    const int n =
        epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      SCEC_CHECK_EQ(errno, EINTR) << "epoll_wait: " << std::strerror(errno);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<size_t>(i)].data.fd;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Look the handler up per event: an earlier handler in this batch may
      // have unwatched this fd (e.g. closed a sibling connection).
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      std::shared_ptr<FdHandler> handler = it->second;  // keep alive
      (*handler)(mask);
    }
    DrainPosted();
    timers_.Advance(NowNs());
  }
  // Final drain so Stop()+Post() ordering is not lossy for shutdown tasks.
  DrainPosted();
  running_.store(false, std::memory_order_release);
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

// ---------------------------------------------------------------------------
// Strand

Strand::Strand(EventLoop* loop) : loop_(loop) {
  SCEC_CHECK(loop != nullptr);
}

void Strand::Post(EventLoop::Callback fn) {
  SCEC_CHECK(fn != nullptr);
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
    if (!scheduled_) {
      scheduled_ = true;
      schedule = true;
    }
  }
  if (schedule) loop_->Post([this]() { Drain(); });
}

void Strand::Drain() {
  // Runs on the loop thread. Execute tasks one at a time, re-checking the
  // queue under the lock, so tasks enqueued mid-drain keep FIFO order.
  while (true) {
    EventLoop::Callback fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) {
        scheduled_ = false;
        return;
      }
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

}  // namespace scec::net
