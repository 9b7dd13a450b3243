// Runtime concurrency verifier tests (DESIGN.md §12): a recording failure
// handler replaces the abort-ing default, then each checker is driven into
// its violation — an inverted lock order, a recursive acquisition, a
// cross-thread counter write without a handoff, a re-entered reactor poll
// and a cross-thread loop mutation — and the test asserts the exact check
// name that fired. Clean patterns (consistent order, handoff seams) must
// stay silent.
#include <gtest/gtest.h>

#if defined(DNSBOOT_VERIFY)

#include <sys/epoll.h>
#include <unistd.h>

#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/mutex.hpp"
#include "base/verify.hpp"
#include "net/wire/event_loop.hpp"
#include "obs/metrics.hpp"

namespace dnsboot {
namespace {

std::mutex g_failures_mu;
std::vector<std::pair<std::string, std::string>> g_failures;

void record_failure(const char* check, const std::string& detail) {
  std::lock_guard<std::mutex> lock(g_failures_mu);
  g_failures.emplace_back(check, detail);
}

// Installs the recording handler for one test's scope.
class FailureCapture {
 public:
  FailureCapture() : previous_(verify::set_failure_handler(&record_failure)) {
    std::lock_guard<std::mutex> lock(g_failures_mu);
    g_failures.clear();
  }
  ~FailureCapture() { verify::set_failure_handler(previous_); }

  std::vector<std::string> checks() const {
    std::lock_guard<std::mutex> lock(g_failures_mu);
    std::vector<std::string> out;
    for (const auto& [check, detail] : g_failures) out.push_back(check);
    return out;
  }
  std::size_t count(const std::string& check) const {
    std::size_t n = 0;
    for (const std::string& c : checks()) n += (c == check) ? 1 : 0;
    return n;
  }

 private:
  verify::FailureHandler previous_;
};

TEST(Lockdep, ConsistentOrderIsSilentAndRecordsEdges) {
  FailureCapture capture;
  base::Mutex a("test::order_a");
  base::Mutex b("test::order_b");
  const std::size_t edges_before = verify::lock_order_edges();
  for (int i = 0; i < 3; ++i) {
    base::MutexLock hold_a(a);
    base::MutexLock hold_b(b);
  }
  EXPECT_TRUE(capture.checks().empty());
  EXPECT_EQ(verify::lock_order_edges(), edges_before + 1);  // a->b, once
}

TEST(Lockdep, InvertedOrderFailsAtAcquisition) {
  FailureCapture capture;
  // Drive the hooks with two int identities: really taking two locks in
  // inverted order is itself what ThreadSanitizer's deadlock detector
  // reports. ConsistentOrderIsSilentAndRecordsEdges shows that a real
  // base::Mutex feeds these same hooks.
  int a = 0;
  int b = 0;
  verify::lock_acquiring(&a, "test::cycle_a");
  verify::lock_acquired(&a);
  verify::lock_acquiring(&b, "test::cycle_b");  // observe a -> b
  verify::lock_acquired(&b);
  verify::lock_released(&b);
  verify::lock_released(&a);

  verify::lock_acquiring(&b, "test::cycle_b");
  verify::lock_acquired(&b);
  // The reversal is reported *before* blocking, on the first run that
  // could deadlock — not the unlucky interleaving that does.
  verify::lock_acquiring(&a, "test::cycle_a");
  EXPECT_EQ(capture.count("lockdep-cycle"), 1u);
  verify::lock_acquired(&a);
  verify::lock_released(&a);
  verify::lock_released(&b);
  verify::lock_destroyed(&a);
  verify::lock_destroyed(&b);
}

TEST(Lockdep, RecursiveAcquisitionFails) {
  FailureCapture capture;
  // Drive the hooks directly: actually re-locking a std::mutex is UB, the
  // verifier must flag it before the lock call would.
  int fake = 0;
  verify::lock_acquiring(&fake, "test::recursive");
  verify::lock_acquired(&fake);
  verify::lock_acquiring(&fake, "test::recursive");
  EXPECT_EQ(capture.count("lockdep-recursive"), 1u);
  verify::lock_released(&fake);
  verify::lock_destroyed(&fake);
}

TEST(Lockdep, DestroyedLockDropsItsEdges) {
  FailureCapture capture;
  const std::size_t edges_before = verify::lock_order_edges();
  {
    base::Mutex a("test::drop_a");
    base::Mutex b("test::drop_b");
    base::MutexLock hold_a(a);
    base::MutexLock hold_b(b);
  }
  EXPECT_EQ(verify::lock_order_edges(), edges_before);
  EXPECT_TRUE(capture.checks().empty());
}

TEST(SingleWriter, CrossThreadWriteWithoutHandoffFails) {
  FailureCapture capture;
  obs::Counter counter;
  counter.add(1);  // main thread claims the counter
  std::thread other([&] { counter.add(1); });
  other.join();
  EXPECT_EQ(capture.count("counter-single-writer"), 1u);
}

TEST(SingleWriter, ResetWriterIsAHandoffSeam) {
  FailureCapture capture;
  obs::MetricsRegistry registry;
  registry.counter("test_handoff").add(1);  // built on this thread
  registry.verify_reset_writers();          // documented handoff
  std::thread worker([&] {
    registry.counter("test_handoff").add(1);
    registry.counter("test_handoff").add(1);
  });
  worker.join();
  EXPECT_TRUE(capture.checks().empty());
  EXPECT_EQ(registry.counter_value("test_handoff"), 3u);
}

TEST(SingleWriter, CopyTakesValueNotClaim) {
  FailureCapture capture;
  obs::Counter counter;
  counter.add(2);
  obs::Counter snapshot(counter);
  std::thread other([&] { snapshot.add(1); });  // fresh claim on the copy
  other.join();
  EXPECT_TRUE(capture.checks().empty());
  EXPECT_EQ(snapshot.get(), 3u);
}

TEST(Reactor, ReenteringPollFromAHandlerFails) {
  FailureCapture capture;
  net::EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  bool fired = false;
  loop.schedule(0, [&] {
    fired = true;
    loop.poll(0);  // re-entry: the classic nested-dispatch bug
  });
  for (int i = 0; i < 50 && !fired; ++i) loop.poll(5'000);
  ASSERT_TRUE(fired);
  EXPECT_EQ(capture.count("reactor-reentrancy"), 1u);
}

TEST(Reactor, CrossThreadMutationWhilePollingFails) {
  FailureCapture capture;
  net::EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::promise<void> in_dispatch;
  std::promise<void> release;
  loop.watch(fds[0], EPOLLIN, [&](std::uint32_t) {
    char buffer[8];
    (void)!read(fds[0], buffer, sizeof buffer);
    in_dispatch.set_value();
    release.get_future().wait();  // hold the poll in flight
  });
  std::thread poller([&] { loop.poll(2'000'000); });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  in_dispatch.get_future().wait();
  loop.schedule(1'000, [] {});  // cross-thread mutation mid-poll
  EXPECT_EQ(capture.count("loop-cross-thread"), 1u);
  release.set_value();
  poller.join();
  loop.unwatch(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(Reactor, SetupThenRunHandoffIsLegal) {
  FailureCapture capture;
  net::EventLoop loop;
  ASSERT_TRUE(loop.error().empty());
  bool fired = false;
  loop.schedule(0, [&] { fired = true; });  // built on this thread
  std::thread runner([&] {                  // run on another: no poll was
    for (int i = 0; i < 50 && !fired; ++i) loop.poll(5'000);
  });
  runner.join();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(capture.checks().empty());
}

}  // namespace
}  // namespace dnsboot

#else  // !DNSBOOT_VERIFY

TEST(VerifyTest, DisabledInThisBuild) {
  GTEST_SKIP() << "built without DNSBOOT_VERIFY; nothing to check";
}

#endif
