#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "base/rng.hpp"
#include "net/address.hpp"
#include "net/simnet.hpp"

namespace dnsboot::net {
namespace {

TEST(IpAddress, V4TextRoundTrip) {
  auto a = IpAddress::v4({192, 0, 2, 1});
  EXPECT_FALSE(a.is_v6());
  EXPECT_EQ(a.to_text(), "192.0.2.1");
}

TEST(IpAddress, V6TextRoundTrip) {
  auto a = IpAddress::v6(
      {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x53});
  EXPECT_TRUE(a.is_v6());
  EXPECT_EQ(a.to_text(), "2001:db8:0:0:0:0:0:53");
}

TEST(IpAddress, SyntheticAddressesAreDistinct) {
  EXPECT_NE(IpAddress::synthetic_v4(1), IpAddress::synthetic_v4(2));
  EXPECT_NE(IpAddress::synthetic_v6(1), IpAddress::synthetic_v6(2));
  EXPECT_NE(IpAddress::synthetic_v4(1), IpAddress::synthetic_v6(1));
  EXPECT_EQ(IpAddress::synthetic_v4(0x00010203).to_text(), "10.1.2.3");
}

TEST(IpAddress, Ordering) {
  auto a = IpAddress::synthetic_v4(1);
  auto b = IpAddress::synthetic_v4(2);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

TEST(SimNetwork, DeliversDatagramAfterLatency) {
  SimNetwork net(1);
  net.set_default_link(LinkModel{5 * kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);

  SimTime delivered_at = 0;
  Bytes received;
  net.bind(server, [&](const Datagram& d) {
    delivered_at = net.now();
    received = d.payload;
  });
  net.send(client, server, Bytes{1, 2, 3});
  net.run();
  EXPECT_EQ(delivered_at, 5 * kMillisecond);
  EXPECT_EQ(received, (Bytes{1, 2, 3}));
  EXPECT_EQ(net.datagrams_delivered(), 1u);
}

TEST(SimNetwork, UnboundDestinationCountsUnroutable) {
  SimNetwork net(1);
  net.send(IpAddress::synthetic_v4(1), IpAddress::synthetic_v4(99), Bytes{1});
  net.run();
  EXPECT_EQ(net.datagrams_unroutable(), 1u);
  EXPECT_EQ(net.datagrams_delivered(), 0u);
}

TEST(SimNetwork, LossDropsDeterministically) {
  SimNetwork net(42);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.5});
  auto server = IpAddress::synthetic_v4(1);
  int delivered = 0;
  net.bind(server, [&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) {
    net.send(IpAddress::synthetic_v4(2), server, Bytes{0});
  }
  net.run();
  EXPECT_EQ(net.datagrams_dropped() + static_cast<std::uint64_t>(delivered),
            1000u);
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);

  // Same seed reproduces exactly.
  SimNetwork net2(42);
  net2.set_default_link(LinkModel{kMillisecond, 0, 0.5});
  int delivered2 = 0;
  net2.bind(server, [&](const Datagram&) { ++delivered2; });
  for (int i = 0; i < 1000; ++i) {
    net2.send(IpAddress::synthetic_v4(2), server, Bytes{0});
  }
  net2.run();
  EXPECT_EQ(delivered, delivered2);
}

TEST(SimNetwork, TimersFireInOrder) {
  SimNetwork net(1);
  std::vector<int> order;
  net.schedule(30, [&] { order.push_back(3); });
  net.schedule(10, [&] { order.push_back(1); });
  net.schedule(20, [&] { order.push_back(2); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net.now(), 30u);
}

TEST(SimNetwork, EqualTimestampsFifo) {
  SimNetwork net(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    net.schedule(100, [&order, i] { order.push_back(i); });
  }
  net.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimNetwork, CancelSuppressesTimer) {
  SimNetwork net(1);
  bool fired = false;
  auto id = net.schedule(10, [&] { fired = true; });
  net.cancel(id);
  net.run();
  EXPECT_FALSE(fired);
}

TEST(SimNetwork, RunUntilStopsAtDeadline) {
  SimNetwork net(1);
  int fired = 0;
  net.schedule(10, [&] { ++fired; });
  net.schedule(20, [&] { ++fired; });
  net.schedule(30, [&] { ++fired; });
  EXPECT_EQ(net.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(net.now(), 20u);
  net.run();
  EXPECT_EQ(fired, 3);
}

TEST(SimNetwork, NestedSchedulingFromHandlers) {
  SimNetwork net(1);
  auto addr = IpAddress::synthetic_v4(1);
  int hops = 0;
  net.bind(addr, [&](const Datagram& d) {
    if (++hops < 5) net.send(d.destination, d.destination, Bytes{0});
  });
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  net.send(addr, addr, Bytes{0});
  net.run();
  EXPECT_EQ(hops, 5);
  EXPECT_EQ(net.now(), 5 * kMillisecond);
}

TEST(SimNetwork, JitterStaysWithinBound) {
  SimNetwork net(7);
  net.set_default_link(LinkModel{10 * kMillisecond, 5 * kMillisecond, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  std::vector<SimTime> arrivals;
  net.bind(server, [&](const Datagram&) { arrivals.push_back(net.now()); });
  // Send all at t=0; arrival times reflect per-packet jitter.
  for (int i = 0; i < 200; ++i) {
    net.send(IpAddress::synthetic_v4(2), server, Bytes{0});
  }
  net.run();
  ASSERT_EQ(arrivals.size(), 200u);
  bool saw_jitter = false;
  for (SimTime t : arrivals) {
    EXPECT_GE(t, 10 * kMillisecond);
    EXPECT_LT(t, 15 * kMillisecond);
    if (t != 10 * kMillisecond) saw_jitter = true;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(SimNetwork, TimerBookkeepingStaysBounded) {
  // Regression: cancel() used to record cancelled ids in a tombstone map that
  // grew for the lifetime of the run. The bookkeeping must track only live
  // timers: ids leave the set when they fire or are cancelled.
  SimNetwork net(1);
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(net.schedule(10 + i, [] {}));
  }
  EXPECT_EQ(net.timer_bookkeeping_size(), 1000u);
  // Cancel every other timer; the set shrinks immediately.
  for (std::size_t i = 0; i < ids.size(); i += 2) net.cancel(ids[i]);
  EXPECT_EQ(net.timer_bookkeeping_size(), 500u);
  // Cancelling an unknown or already-cancelled id is a no-op.
  net.cancel(ids[0]);
  net.cancel(999999);
  EXPECT_EQ(net.timer_bookkeeping_size(), 500u);
  net.run();
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);

  // Long-run shape: repeated schedule/fire cycles never accumulate state.
  for (int round = 0; round < 100; ++round) {
    auto keep = net.schedule(1, [] {});
    auto drop = net.schedule(2, [] {});
    net.cancel(drop);
    (void)keep;
    net.run();
    EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
  }
}

TEST(SimNetwork, CancelledTimerDoesNotFireAfterIdReuseWindow) {
  SimNetwork net(1);
  int fired = 0;
  auto id = net.schedule(10, [&] { ++fired; });
  net.schedule(5, [&] { net.cancel(id); });
  // A later timer with the same deadline still fires normally.
  net.schedule(10, [&] { ++fired; });
  net.run();
  EXPECT_EQ(fired, 1);
}

// Timer ids are (slot, generation): an id goes stale when its timer fires or
// is cancelled, and must stay inert after its slot is reused by a new timer.
TEST(SimNetwork, CancelOfFiredTimerIdDoesNothing) {
  SimNetwork net(1);
  int first = 0;
  int second = 0;
  auto fired_id = net.schedule(1, [&] { ++first; });
  net.run();
  ASSERT_EQ(first, 1);
  // The next timer takes the freed slot; the old id must not reach it.
  auto live_id = net.schedule(1, [&] { ++second; });
  EXPECT_NE(live_id, fired_id);
  net.cancel(fired_id);
  EXPECT_EQ(net.timer_bookkeeping_size(), 1u);
  net.run();
  EXPECT_EQ(second, 1);
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
}

TEST(SimNetwork, CancelOfStaleCancelledTimerIdDoesNothing) {
  SimNetwork net(1);
  int fired = 0;
  auto cancelled_id = net.schedule(5, [&] { ++fired; });
  net.cancel(cancelled_id);
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
  net.run();  // nothing to fire: cancel() already freed the slot
  EXPECT_EQ(fired, 0);
  auto reused_id = net.schedule(5, [&] { ++fired; });
  net.cancel(cancelled_id);  // twice stale: cancelled, then slot reused
  net.cancel(cancelled_id);
  EXPECT_EQ(net.timer_bookkeeping_size(), 1u);
  net.run();
  EXPECT_EQ(fired, 1);
  net.cancel(reused_id);  // fired: stale too
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
}

TEST(SimNetwork, CancelFromInsideItsOwnTimerDoesNothingToTheSlotsNextTimer) {
  SimNetwork net(1);
  int later = 0;
  std::uint64_t self = 0;
  self = net.schedule(1, [&] {
    // The firing timer's slot is already free: a timer scheduled here may
    // take it, and cancelling the firing timer's own id must not touch it.
    net.schedule(1, [&] { ++later; });
    net.cancel(self);
    EXPECT_EQ(net.timer_bookkeeping_size(), 1u);
  });
  net.run();
  EXPECT_EQ(later, 1);
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
}

TEST(SimNetwork, TimerIdsStayDistinctAcrossSlotReuse) {
  SimNetwork net(1);
  std::set<std::uint64_t> ids;
  for (int round = 0; round < 50; ++round) {
    auto id = net.schedule(1, [] {});
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second) << "id reused in round " << round;
    net.run();
  }
  // Unknown ids, including 0 and slots never handed out, are no-ops.
  net.cancel(0);
  net.cancel(std::uint64_t{7} << 32 | 12345);
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
}

// cancel() takes the timer out of the queue at once and drops its handler.
TEST(SimNetwork, CancelDestroysTheHandlerImmediately) {
  SimNetwork net(1);
  auto token = std::make_shared<int>(0);
  auto id = net.schedule(10, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  net.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(net.run(), 0u);
  EXPECT_EQ(*token, 0);
}

// A drained run() ends at the latest due time of a cancelled timer, as if
// the cancelled timers had stayed queued and expired unfired.
TEST(SimNetwork, DrainedRunEndsAtLastCancelledDueTime) {
  SimNetwork net(1);
  net.schedule(10, [] {});
  net.cancel(net.schedule(2 * kSecond, [] {}));
  net.cancel(net.schedule(5, [] {}));
  EXPECT_EQ(net.run(), 1u);
  EXPECT_EQ(net.now(), 2 * kSecond);

  // A cancelled due time already passed leaves the clock where it is.
  net.schedule(3 * kSecond, [] {});
  EXPECT_EQ(net.run(), 1u);
  EXPECT_EQ(net.now(), 5 * kSecond);
}

TEST(SimNetwork, CappedRunDoesNotJumpToCancelledDueTime) {
  SimNetwork net(1);
  net.schedule(10, [] {});
  net.schedule(20, [] {});
  net.cancel(net.schedule(100, [] {}));
  // The queue is empty after the second event, but the cap stopped the run.
  EXPECT_EQ(net.run(2), 2u);
  EXPECT_EQ(net.now(), 20u);
  EXPECT_EQ(net.run(0), 0u);
  EXPECT_EQ(net.now(), 20u);
  EXPECT_EQ(net.run(), 0u);
  EXPECT_EQ(net.now(), 100u);
}

// Cancels from outside and from inside handlers, in the middle of a large
// queue, never disturb the (due time, schedule order) firing order.
TEST(SimNetwork, CancelKeepsFiringOrderOverManyTimers) {
  SimNetwork net(1);
  Rng rng(42);
  struct Timer {
    SimTime at;
    std::uint64_t id;
    bool cancelled;
  };
  std::vector<Timer> timers;
  std::vector<std::size_t> fired;
  auto cancel_one = [&](std::size_t victim) {
    if (timers[victim].cancelled) return;
    timers[victim].cancelled = true;
    net.cancel(timers[victim].id);
  };
  for (std::size_t i = 0; i < 2000; ++i) {
    const SimTime delay = rng.next_below(500);
    const std::size_t victim = rng.next_below(2000);
    timers.push_back({delay, net.schedule(delay, [&, i, victim] {
                        fired.push_back(i);
                        // Cancel a timer still queued, if it is one.
                        if (victim < timers.size() &&
                            timers[victim].at > net.now()) {
                          cancel_one(victim);
                        }
                      }),
                      false});
    if (i % 3 == 0) cancel_one(rng.next_below(timers.size()));
  }
  net.run();
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < timers.size(); ++i) {
    if (!timers[i].cancelled) expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return timers[a].at < timers[b].at;
                   });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(net.timer_bookkeeping_size(), 0u);
}

TEST(SimNetwork, BlackholeWindowDropsOnlyInsideWindow) {
  SimNetwork net(3);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.blackholes.push_back(TimeWindow{10 * kSecond, 20 * kSecond});
  net.set_faults_to(server, profile);
  std::vector<SimTime> arrivals;
  net.bind(server, [&](const Datagram&) { arrivals.push_back(net.now()); });
  // One datagram before, one inside, one after the window.
  net.schedule(5 * kSecond, [&] { net.send(client, server, Bytes{0}); });
  net.schedule(15 * kSecond, [&] { net.send(client, server, Bytes{0}); });
  net.schedule(25 * kSecond, [&] { net.send(client, server, Bytes{0}); });
  net.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 5 * kSecond + kMillisecond);
  EXPECT_EQ(arrivals[1], 25 * kSecond + kMillisecond);
  EXPECT_EQ(net.fault_stats().blackholed, 1u);
}

TEST(SimNetwork, LinkFlapDropsPeriodically) {
  SimNetwork net(3);
  net.set_default_link(LinkModel{0, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.flap_period = 10 * kSecond;  // down [0, 2s) of every 10 s
  profile.flap_down = 2 * kSecond;
  net.set_faults_to(server, profile);
  int delivered = 0;
  net.bind(server, [&](const Datagram&) { ++delivered; });
  // One send per second for 20 s: seconds 0,1,10,11 fall in down windows.
  for (int s = 0; s < 20; ++s) {
    net.schedule(static_cast<SimTime>(s) * kSecond + 1,
                 [&] { net.send(client, server, Bytes{0}); });
  }
  net.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.fault_stats().flap_dropped, 4u);
}

TEST(SimNetwork, FlapPhaseShiftsDownWindow) {
  SimNetwork net(3);
  net.set_default_link(LinkModel{0, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  FaultProfile profile;
  profile.flap_period = 10 * kSecond;
  profile.flap_down = 2 * kSecond;
  profile.flap_phase = 5 * kSecond;  // down windows start at 5 s, 15 s, ...
  net.set_faults_to(server, profile);
  int delivered = 0;
  net.bind(server, [&](const Datagram&) { ++delivered; });
  auto client = IpAddress::synthetic_v4(2);
  net.schedule(1 * kSecond, [&] { net.send(client, server, Bytes{0}); });
  net.schedule(6 * kSecond, [&] { net.send(client, server, Bytes{0}); });
  net.run();
  EXPECT_EQ(delivered, 1);
}

TEST(SimNetwork, BurstLossDropsRunsOfDatagrams) {
  SimNetwork net(11);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.burst_enter = 0.02;
  profile.burst_duration = 20 * kMillisecond;  // total loss inside the burst
  net.set_faults_to(server, profile);
  int delivered = 0;
  net.bind(server, [&](const Datagram&) { ++delivered; });
  // One datagram per millisecond: a burst swallows a ~20-datagram run.
  for (int i = 0; i < 2000; ++i) {
    net.schedule(static_cast<SimTime>(i) * kMillisecond,
                 [&] { net.send(client, server, Bytes{0}); });
  }
  net.run();
  EXPECT_GT(net.fault_stats().burst_dropped, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) +
                net.fault_stats().burst_dropped,
            2000u);
  // Bursts drop meaningful runs, not isolated datagrams.
  EXPECT_GE(net.fault_stats().burst_dropped, 20u);
}

TEST(SimNetwork, DuplicationDeliversSecondCopy) {
  SimNetwork net(5);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.duplicate_rate = 1.0;
  net.set_faults_to(server, profile);
  int delivered = 0;
  net.bind(server, [&](const Datagram&) { ++delivered; });
  net.send(client, server, Bytes{7});
  net.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.fault_stats().duplicated, 1u);
}

TEST(SimNetwork, ReorderingDelaysDatagramPastLaterOne) {
  SimNetwork net(5);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.reorder_rate = 1.0;
  profile.reorder_delay = 100 * kMillisecond;
  net.set_faults_to(server, profile);
  std::vector<int> order;
  net.bind(server, [&](const Datagram& d) { order.push_back(d.payload[0]); });
  net.send(client, server, Bytes{1});
  // Without faults the second datagram (sent later) arrives second.
  net.set_faults_to(server, FaultProfile{});
  net.schedule(10 * kMillisecond, [&] { net.send(client, server, Bytes{2}); });
  net.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // the reordered datagram was held back
  EXPECT_EQ(order[1], 1);
}

TEST(SimNetwork, CorruptionFlipsExactlyOneBit) {
  SimNetwork net(5);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.corrupt_rate = 1.0;
  net.set_faults_to(server, profile);
  Bytes received;
  net.bind(server, [&](const Datagram& d) { received = d.payload; });
  Bytes sent{0x00, 0xff, 0x55, 0xaa};
  net.send(client, server, sent);
  net.run();
  ASSERT_EQ(received.size(), sent.size());
  int flipped_bits = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    std::uint8_t diff = sent[i] ^ received[i];
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(net.fault_stats().corrupted, 1u);
}

TEST(SimNetwork, FaultLossStacksWithLinkLoss) {
  SimNetwork net(13);
  net.set_default_link(LinkModel{kMillisecond, 0, 0.0});
  auto server = IpAddress::synthetic_v4(1);
  auto client = IpAddress::synthetic_v4(2);
  FaultProfile profile;
  profile.loss_rate = 0.3;
  net.set_faults_to(server, profile);
  int delivered = 0;
  net.bind(server, [&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 2000; ++i) net.send(client, server, Bytes{0});
  net.run();
  // ~70% survival, well away from both 100% and 50%.
  EXPECT_GT(delivered, 1250);
  EXPECT_LT(delivered, 1550);
  EXPECT_EQ(net.fault_stats().fault_lost,
            2000u - static_cast<std::uint64_t>(delivered));
}

TEST(FaultProfile, PermanentlyDeadPredicate) {
  FaultProfile profile;
  EXPECT_FALSE(profile.permanently_dead());
  profile.blackholes.push_back(TimeWindow{10, 20});
  EXPECT_FALSE(profile.permanently_dead());
  profile.blackholes.push_back(TimeWindow{});  // [0, forever)
  EXPECT_TRUE(profile.permanently_dead());
}

}  // namespace
}  // namespace dnsboot::net
