// EventLoop — a non-blocking epoll reactor.
//
// This is the real-time twin of SimNetwork: file descriptors register
// interest masks with callbacks, timers wait in the same EventQueue the
// simulator runs on (net/event_queue.hpp), and poll() runs one epoll_wait
// plus a timer-expiry pass. Time is the monotonic clock in microseconds
// since loop construction, so SimTime arithmetic from the simulator carries
// over unchanged.
//
// Single-threaded by design — one loop per worker thread, share-nothing
// (the SO_REUSEPORT model). The only cross-thread entry point is wakeup(),
// which is async-signal-safe and wakes a blocking poll(). Under
// DNSBOOT_VERIFY that contract is enforced at runtime: re-entering poll()
// from inside a dispatched callback fails ("reactor-reentrancy"), as does
// mutating the loop (schedule/cancel/watch/unwatch) from another thread
// while a poll is in flight ("loop-cross-thread") — see base/verify.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/event_queue.hpp"
#include "net/transport.hpp"

namespace dnsboot::net {

class EventLoop {
 public:
  // epoll event mask (EPOLLIN/EPOLLOUT/...) of the wakeup.
  using IoHandler = std::function<void(std::uint32_t events)>;
  using TimerHandler = Transport::TimerHandler;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Monotonic microseconds since construction.
  SimTime now() const;

  // Run `fn` once at now() + delay, from the first poll() whose
  // timer-expiry pass finds it due. Ids follow the Transport timer-id
  // contract (net/transport.hpp).
  std::uint64_t schedule(SimTime delay, TimerHandler fn);
  void cancel(std::uint64_t timer_id);
  std::size_t live_timers() const { return timers_.live_timers(); }

  // Register or update interest in `fd`. `events` is an epoll mask; the
  // handler fires with the ready mask. unwatch() must precede close(fd).
  void watch(int fd, std::uint32_t events, IoHandler handler);
  void unwatch(int fd);
  std::size_t watched_fds() const { return io_.size(); }

  // One reactor pass: wait for io (at most `max_wait`, clipped to the next
  // timer expiry), dispatch ready fds, then fire every timer due by the
  // clock reading taken after that dispatch. Returns the number of
  // callbacks dispatched.
  std::size_t poll(SimTime max_wait);

  // Wake a blocking poll() from another thread or a signal handler.
  void wakeup();

  // First fatal loop error (epoll/eventfd syscall failure), empty if none.
  const std::string& error() const { return error_; }

 private:
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;  // eventfd, watched for cross-thread wakeups
  SimTime epoch_us_ = 0;

  EventQueue<TimerHandler> timers_;
  std::unordered_map<int, IoHandler> io_;
  std::string error_;

#if defined(DNSBOOT_VERIFY)
  // Reactor guard state: the verify::thread_tag() of the thread currently
  // inside poll(), 0 when idle. Mutators compare against it; poll() uses it
  // to detect re-entry. Setup-then-run handoff (build the loop on one
  // thread, run it on another) is legal — ownership is only asserted while
  // a poll is actually in flight.
  friend class EventLoopPollScope;
  void verify_not_mid_poll(const char* op) const;
  std::atomic<std::uint64_t> poll_owner_{0};
#endif
};

}  // namespace dnsboot::net
