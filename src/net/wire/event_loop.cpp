#include "net/wire/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#if defined(DNSBOOT_VERIFY)
#include "base/verify.hpp"
#endif

namespace dnsboot::net {

#if defined(DNSBOOT_VERIFY)
// RAII poll ownership: claims poll_owner_ for the duration of one poll()
// pass, failing on re-entry (same thread) or concurrent polling (another
// thread). Releases only if this frame made the claim, so a returning
// failure handler (tests) leaves the outer frame's claim intact.
class EventLoopPollScope {
 public:
  explicit EventLoopPollScope(EventLoop& loop) : loop_(loop) {
    const std::uint64_t me = verify::thread_tag();
    std::uint64_t expected = 0;
    // audit-allow: A004 CAS claim; verifier state needs no ordering
    claimed_ = loop_.poll_owner_.compare_exchange_strong(
        expected, me, std::memory_order_relaxed);
    if (!claimed_) {
      verify::fail(expected == me ? "reactor-reentrancy"
                                  : "loop-concurrent-poll",
                   expected == me
                       ? "poll() re-entered from inside a dispatched handler"
                       : "poll() entered while another thread is polling "
                         "this loop");
    }
  }
  ~EventLoopPollScope() {
    // audit-allow: A004 releasing the verifier claim needs no ordering
    if (claimed_) loop_.poll_owner_.store(0, std::memory_order_relaxed);
  }
  EventLoopPollScope(const EventLoopPollScope&) = delete;
  EventLoopPollScope& operator=(const EventLoopPollScope&) = delete;

 private:
  EventLoop& loop_;
  bool claimed_ = false;
};

void EventLoop::verify_not_mid_poll(const char* op) const {
  const std::uint64_t owner = poll_owner_.load(std::memory_order_relaxed);
  if (owner != 0 && owner != verify::thread_tag()) {
    verify::fail("loop-cross-thread",
                 std::string(op) +
                     " called from another thread while a poll is in "
                     "flight (only wakeup() is cross-thread-safe)");
  }
}
#endif

namespace {

SimTime monotonic_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000 +
         static_cast<SimTime>(ts.tv_nsec) / 1'000;
}

}  // namespace

EventLoop::EventLoop() {
  epoch_us_ = monotonic_us();
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    error_ = std::string("epoll_create1: ") + std::strerror(errno);
    return;
  }
  wakeup_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) {
    error_ = std::string("eventfd: ") + std::strerror(errno);
    return;
  }
  watch(wakeup_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t drain = 0;
    while (read(wakeup_fd_, &drain, sizeof drain) == sizeof drain) {
    }
  });
}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) close(wakeup_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

SimTime EventLoop::now() const { return monotonic_us() - epoch_us_; }

std::uint64_t EventLoop::schedule(SimTime delay, TimerHandler fn) {
#if defined(DNSBOOT_VERIFY)
  verify_not_mid_poll("schedule()");
#endif
  return timers_.push_timer(now() + delay, std::move(fn));
}

void EventLoop::cancel(std::uint64_t timer_id) {
#if defined(DNSBOOT_VERIFY)
  verify_not_mid_poll("cancel()");
#endif
  timers_.cancel(timer_id);
}

std::size_t EventLoop::poll(SimTime max_wait) {
#if defined(DNSBOOT_VERIFY)
  EventLoopPollScope poll_scope(*this);
#endif
  if (epoll_fd_ < 0) return 0;
  SimTime wait = max_wait;
  if (!timers_.empty()) {
    const SimTime due = timers_.next_due();
    const SimTime now_us = now();
    wait = std::min(wait, due > now_us ? due - now_us : 0);
  }
  int timeout_ms;
  if (wait == kSimTimeForever) {
    timeout_ms = -1;
  } else {
    // Round up so a near timer is due when the wait ends, not a little
    // before it (which would spin one more empty pass).
    timeout_ms = static_cast<int>(
        std::min<SimTime>((wait + 999) / 1000, 60 * 1000));
  }

  epoll_event events[64];
  int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
  std::size_t dispatched = 0;
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    auto it = io_.find(fd);
    if (it == io_.end()) continue;  // unwatched by an earlier handler
    // Copy: the handler may watch()/unwatch() and invalidate the iterator.
    IoHandler handler = it->second;
    handler(events[i].events);
    ++dispatched;
  }
  // Timers fire after the io dispatch, never inside it. The pass takes one
  // clock reading and fires only what is due by it, so a timer that keeps
  // re-arming itself cannot hold the loop here.
  const SimTime now_us = now();
  while (!timers_.empty() && timers_.next_due() <= now_us) {
    TimerHandler fn = timers_.pop();
    fn();
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::watch(int fd, std::uint32_t events, IoHandler handler) {
#if defined(DNSBOOT_VERIFY)
  verify_not_mid_poll("watch()");
#endif
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  auto it = io_.find(fd);
  if (it == io_.end()) {
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      if (error_.empty()) {
        error_ = std::string("epoll_ctl add: ") + std::strerror(errno);
      }
      return;
    }
    io_.emplace(fd, std::move(handler));
  } else {
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0 && error_.empty()) {
      error_ = std::string("epoll_ctl mod: ") + std::strerror(errno);
    }
    it->second = std::move(handler);
  }
}

void EventLoop::unwatch(int fd) {
#if defined(DNSBOOT_VERIFY)
  verify_not_mid_poll("unwatch()");
#endif
  if (io_.erase(fd) > 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoop::wakeup() {
  std::uint64_t one = 1;
  // Best-effort: a full eventfd counter already guarantees a wakeup.
  [[maybe_unused]] ssize_t rc = write(wakeup_fd_, &one, sizeof one);
}

}  // namespace dnsboot::net
