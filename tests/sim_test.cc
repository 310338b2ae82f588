// Unit tests for the discrete-event simulator and statistics helpers.

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace publishing {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, ScheduleAfterIsRelativeToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(Millis(10), [&] {
    sim.ScheduleAfter(Millis(5), [&] { fired_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(Millis(10), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id)) << "double cancel must report failure";
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReportsFailure) {
  Simulator sim;
  EventId id = sim.ScheduleAt(Millis(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulator, CancelInvalidIdIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(EventId{}));
  EXPECT_FALSE(sim.Cancel(EventId{9999}));
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(sim.Now(), Seconds(3));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  bool early = false;
  bool late = false;
  sim.ScheduleAt(Millis(10), [&] { early = true; });
  sim.ScheduleAt(Millis(30), [&] { late = true; });
  sim.RunUntil(Millis(20));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.Now(), Millis(20));
  sim.Run();
  EXPECT_TRUE(late);
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator sim;
  sim.ScheduleAt(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, PendingEventsAccounting) {
  Simulator sim;
  EventId a = sim.ScheduleAt(1, [] {});
  sim.ScheduleAt(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelWithStaleHandleAfterSlotReuseReportsFailure) {
  Simulator sim;
  bool victim_fired = false;
  EventId stale = sim.ScheduleAt(Millis(1), [] {});
  sim.Run();
  // The fired event's slab slot is recycled for the next schedule; the stale
  // handle's generation no longer matches, so it must not cancel the newcomer.
  EventId fresh = sim.ScheduleAt(Millis(2), [&] { victim_fired = true; });
  EXPECT_FALSE(sim.Cancel(stale));
  sim.Run();
  EXPECT_TRUE(victim_fired);
  EXPECT_TRUE(fresh.IsValid());
}

TEST(Simulator, CancelFromWithinOwnCallbackReportsFailure) {
  Simulator sim;
  EventId id;
  bool cancel_result = true;
  id = sim.ScheduleAt(Millis(1), [&] { cancel_result = sim.Cancel(id); });
  sim.Run();
  EXPECT_FALSE(cancel_result) << "an event is already fired while its callback runs";
}

TEST(Simulator, CancelFromAnotherCallbackPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId doomed = sim.ScheduleAt(Millis(20), [&] { fired = true; });
  sim.ScheduleAt(Millis(10), [&] { EXPECT_TRUE(sim.Cancel(doomed)); });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.Now(), Millis(10)) << "cancelled event must not advance the clock";
}

TEST(Simulator, SameInstantFifoSurvivesInterleavedCancellations) {
  // Cancelling from the middle of a same-instant batch rearranges the heap
  // (swap-with-last + sift); the survivors must still fire in schedule order.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(sim.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 64; i += 3) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 64; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(Simulator, SameInstantFifoSurvivesSlotReuse) {
  // Recycled slab slots get fresh sequence numbers, so FIFO order within an
  // instant reflects schedule order even when slots are reused out of order.
  Simulator sim;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {
    EventId a = sim.ScheduleAt(Millis(1), [] {});
    EventId b = sim.ScheduleAt(Millis(1), [] {});
    sim.Cancel(b);
    sim.Cancel(a);
  }
  for (int i = 0; i < 8; ++i) {
    sim.ScheduleAt(Millis(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, MemoryBoundedByPendingEventsNotTotalScheduled) {
  // 10M schedule/retire cycles with at most `kWindow` events pending must not
  // grow the slab past the pending peak.  The old engine kept O(total ever
  // scheduled) bitsets; this is the regression test for that leak.
  Simulator sim;
  constexpr int kWindow = 16;
  constexpr int kCycles = 10'000'000;
  std::vector<EventId> window;
  int fired = 0;
  for (int i = 0; i < kCycles; ++i) {
    EventId id = sim.ScheduleAfter(1 + (i % 7), [&fired] { ++fired; });
    window.push_back(id);
    if (window.size() == kWindow) {
      // Retire half by cancelling, half by firing.
      for (size_t j = 0; j < kWindow / 2; ++j) {
        sim.Cancel(window[j]);
      }
      sim.RunFor(8);
      window.clear();
    }
  }
  sim.Run();
  EXPECT_GT(fired, 0);
  EXPECT_LE(sim.slab_slots(), static_cast<size_t>(2 * kWindow))
      << "slab must be bounded by peak pending events";
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimCallback, CaptureLightLambdasStayInline) {
  int x = 0;
  int* p = &x;
  SimCallback cb([p] { ++*p; });
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(x, 1);
}

TEST(SimCallback, OversizedCapturesFallBackToHeap) {
  std::vector<int> big(100, 7);
  int sum = 0;
  std::array<char, 128> pad{};
  SimCallback cb([big, pad, &sum] { sum = big[0] + pad[0]; });
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(sum, 7);
}

TEST(SimCallback, MoveTransfersCallable) {
  int hits = 0;
  SimCallback a([&hits] { ++hits; });
  SimCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(PeriodicTask, FiresEveryPeriodUntilStopped) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Millis(10), [&] { ++fired; });
  task.Start();
  sim.RunUntil(Millis(55));
  EXPECT_EQ(fired, 5);
  task.Stop();
  sim.RunUntil(Millis(200));
  EXPECT_EQ(fired, 5);
}

TEST(PeriodicTask, StopFromWithinBodyIsSafe) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, Millis(10), [&] {
    ++fired;
    // Stopping oneself mid-callback must not re-arm.
  });
  task.Start();
  sim.ScheduleAt(Millis(25), [&] { task.Stop(); });
  sim.RunUntil(Millis(100));
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTask, StopFromInsideOwnCallbackDoesNotRearm) {
  // The firing event's handle is already stale when the body runs; Stop()
  // must cope with cancelling it (a no-op) and suppress the re-arm.
  Simulator sim;
  int fired = 0;
  PeriodicTask* self = nullptr;
  PeriodicTask task(&sim, Millis(10), [&] {
    ++fired;
    if (fired == 3) {
      self->Stop();
    }
  });
  self = &task;
  task.Start();
  sim.RunUntil(Millis(500));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopThenStartFromInsideOwnCallbackContinues) {
  Simulator sim;
  int fired = 0;
  PeriodicTask* self = nullptr;
  PeriodicTask task(&sim, Millis(10), [&] {
    ++fired;
    if (fired == 2) {
      self->Stop();
      self->Start();  // re-arm fresh: next fire one full period later
    }
  });
  self = &task;
  task.Start();
  sim.RunUntil(Millis(45));
  EXPECT_EQ(fired, 4);
  task.Stop();
}

// A multi-domain engine orders its one heap by (when, domain-id), with
// same-instant cross-domain handoffs after local events.
TEST(Simulator, MultiDomainEventsMergeInTimeThenDomainOrder) {
  Simulator root;
  Simulator* a = root.AddDomain();
  Simulator* b = root.AddDomain();
  std::vector<std::string> order;
  b->ScheduleAt(Millis(10), [&] { order.push_back("b@10"); });
  a->ScheduleAt(Millis(10), [&] { order.push_back("a@10"); });
  root.ScheduleAt(Millis(10), [&] { order.push_back("root@10"); });
  a->ScheduleAt(Millis(5), [&] { order.push_back("a@5"); });
  root.Run();
  // Same instant: control (domain 0) first, then domains in id order.
  EXPECT_EQ(order, (std::vector<std::string>{"a@5", "root@10", "a@10", "b@10"}));
  EXPECT_EQ(root.Now(), Millis(10));
  EXPECT_EQ(a->Now(), Millis(10));
}

// Handoffs landing at one instant fire after that instant's locally
// scheduled events, in the order the sends executed (sender when, then
// sender domain).
TEST(Simulator, HandoffsFireAfterLocalEventsInSenderRankOrder) {
  Simulator root;
  Simulator* a = root.AddDomain();
  Simulator* b = root.AddDomain();
  Simulator* c = root.AddDomain();

  std::vector<std::string> order;
  c->ScheduleAt(Millis(5), [&] { order.push_back("local"); });
  // Both handoffs land at exactly t=5ms.  Sender b fires before sender a
  // (earlier when), so its handoff ranks first.
  a->ScheduleAt(Millis(4), [&, a, c] {
    a->ScheduleOnAfter(c, Millis(1), [&] { order.push_back("fromA"); });
  });
  b->ScheduleAt(Millis(3), [&, b, c] {
    b->ScheduleOnAfter(c, Millis(2), [&] { order.push_back("fromB"); });
  });
  root.Run();

  EXPECT_EQ(order, (std::vector<std::string>{"local", "fromB", "fromA"}));
  EXPECT_EQ(root.engine_stats().handoffs, 2u);
}

// One heap serves every domain, so an EventId names exactly one event:
// cancelling it through any domain view cancels that event and no other.
TEST(Simulator, EventIdsAreUniqueAcrossDomains) {
  Simulator root;
  Simulator* a = root.AddDomain();
  Simulator* b = root.AddDomain();
  int a_fired = 0;
  int b_fired = 0;
  const EventId from_a = a->ScheduleAt(Millis(1), [&] { ++a_fired; });
  const EventId from_b = b->ScheduleAt(Millis(1), [&] { ++b_fired; });
  EXPECT_NE(from_a, from_b);

  EXPECT_TRUE(b->Cancel(from_a));
  EXPECT_FALSE(root.Cancel(from_a)) << "a handle cancels once";
  EXPECT_EQ(a->pending_events(), 0u);
  EXPECT_EQ(b->pending_events(), 1u);
  root.Run();
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
}

// One clock: a domain reads the engine's time even while another domain's
// event runs, schedules relative to it, and every view reads the deadline
// after RunUntil.
TEST(Simulator, EveryDomainReadsTheGlobalClock) {
  Simulator root;
  Simulator* x = root.AddDomain();
  Simulator* y = root.AddDomain();
  SimTime x_during_y = 0;
  SimTime x_follow_up = 0;
  x->ScheduleAt(Millis(1), [] {});
  y->ScheduleAt(Millis(5), [&] {
    x_during_y = x->Now();
    x->ScheduleAfter(Millis(1), [&] { x_follow_up = x->Now(); });
  });
  root.Run();
  EXPECT_EQ(x_during_y, Millis(5));
  EXPECT_EQ(x_follow_up, Millis(6));

  root.RunUntil(Millis(20));
  for (const Simulator* view : {&root, x, y}) {
    EXPECT_EQ(view->Now(), Millis(20)) << "domain " << view->domain();
  }
}

struct DomainLog {
  // (firing time, value drawn from the domain's private RNG at that firing):
  // any divergence in firing order, handoff interleaving, or RNG consumption
  // shows up as a mismatch.
  std::vector<std::pair<SimTime, uint64_t>> entries;

  bool operator==(const DomainLog& other) const { return entries == other.entries; }
};

// Random walks over four domains: each firing either reschedules locally or
// hands the walk to a random domain (itself included) after at least 1 ms.
std::vector<DomainLog> RunRandomSchedule(uint64_t seed) {
  constexpr size_t kDomains = 4;
  constexpr int kBudgetPerChain = 300;

  Simulator root;
  std::vector<Simulator*> doms;
  for (size_t d = 0; d < kDomains; ++d) {
    doms.push_back(root.AddDomain());
  }
  struct Chain {
    std::mt19937_64 rng;
    int budget = kBudgetPerChain;
  };
  std::vector<Chain> chains(kDomains);
  std::vector<DomainLog> logs(kDomains);
  for (size_t d = 0; d < kDomains; ++d) {
    chains[d].rng.seed(seed * 1000 + d);
  }

  std::function<void(size_t)> step = [&](size_t d) {
    Chain& chain = chains[d];
    logs[d].entries.emplace_back(doms[d]->Now(), chain.rng());
    if (--chain.budget <= 0) {
      return;
    }
    const SimDuration jitter = static_cast<SimDuration>(1 + chain.rng() % 500'000);
    if (chain.rng() % 4 == 0) {
      const size_t target = chain.rng() % kDomains;
      doms[d]->ScheduleOnAfter(doms[target], Millis(1) + jitter,
                               [&step, target] { step(target); });
    } else {
      doms[d]->ScheduleAfter(jitter, [&step, d] { step(d); });
    }
  };

  for (size_t d = 0; d < kDomains; ++d) {
    doms[d]->ScheduleAt(Micros(1 + d), [&step, d] { step(d); });
  }
  root.Run();
  return logs;
}

TEST(Simulator, RandomMultiDomainScheduleIsReproducible) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto first = RunRandomSchedule(seed);
    const auto second = RunRandomSchedule(seed);
    for (size_t d = 0; d < first.size(); ++d) {
      EXPECT_EQ(first[d], second[d]) << "seed=" << seed << " domain=" << d;
    }
  }
  // Pins the total order itself: a walk dies when it lands on a domain whose
  // budget another walk already spent, so the firing count depends on the
  // exact interleaving.
  size_t total = 0;
  for (const DomainLog& log : RunRandomSchedule(3)) {
    total += log.entries.size();
  }
  EXPECT_EQ(total, 1151u);
}

// Six chains over the given domains, at distinct instants (chain c fires at
// c µs past each millisecond), so the global order does not depend on how
// the chains are partitioned.  Each firing arms and cancels a timer, then
// reschedules; every fourth firing hands the chain to the next domain.
struct MetricsChurn {
  static constexpr int kChains = 6;
  static constexpr int kFirings = 20;

  std::vector<Simulator*> domains;
  int budget[kChains] = {};
  uint64_t fired = 0;

  void Start() {
    for (int c = 0; c < kChains; ++c) {
      budget[c] = kFirings;
      domains[c % domains.size()]->ScheduleAt(Micros(c),
                                              [this, c] { Fire(c, c % domains.size()); });
    }
  }

  void Fire(int c, size_t d) {
    ++fired;
    Simulator* sim = domains[d];
    sim->Cancel(sim->ScheduleAfter(Millis(250), [] {}));
    if (--budget[c] == 0) {
      return;
    }
    if (budget[c] % 4 == 0) {
      const size_t next = (d + 1) % domains.size();
      sim->ScheduleOnAfter(domains[next], Millis(1), [this, c, next] { Fire(c, next); });
    } else {
      sim->ScheduleAfter(Millis(1), [this, c, d] { Fire(c, d); });
    }
  }
};

struct SimMetrics {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  double depth = 0;

  bool operator==(const SimMetrics&) const = default;
};

SimMetrics ReadSimMetrics(MetricsRegistry& registry) {
  return SimMetrics{registry.GetCounter("sim.events_scheduled")->value(),
                    registry.GetCounter("sim.events_fired")->value(),
                    registry.GetCounter("sim.events_cancelled")->value(),
                    registry.GetGauge("sim.queue_depth")->value()};
}

// One metrics path for any domain count: the same workload on a one-domain
// and a three-domain core reports the same sim.* values after every Step,
// RunUntil and Run, and a registry attached mid-run counts only later events.
TEST(Simulator, MetricsMatchAcrossDomainCounts) {
  Simulator single;
  Simulator multi;
  MetricsChurn one;
  MetricsChurn three;
  one.domains = {&single};
  three.domains = {&multi, multi.AddDomain(), multi.AddDomain()};
  one.Start();
  three.Start();

  // Unobserved prefix.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(single.Step());
    ASSERT_TRUE(multi.Step());
  }
  single.RunUntil(Millis(2));
  multi.RunUntil(Millis(2));
  ASSERT_EQ(one.fired, three.fired);
  const uint64_t fired_before = one.fired;

  MetricsRegistry reg_one;
  MetricsRegistry reg_three;
  single.SetObservability(Observability{.metrics = &reg_one});
  multi.SetObservability(Observability{.metrics = &reg_three});

  // The first observed event: one firing, its timer armed and cancelled, and
  // the chain's next link.
  ASSERT_TRUE(single.Step());
  ASSERT_TRUE(multi.Step());
  const SimMetrics first = ReadSimMetrics(reg_one);
  EXPECT_EQ(first, (SimMetrics{2, 1, 1, MetricsChurn::kChains}));
  EXPECT_EQ(ReadSimMetrics(reg_three), first);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(single.Step());
    ASSERT_TRUE(multi.Step());
    EXPECT_EQ(ReadSimMetrics(reg_one), ReadSimMetrics(reg_three)) << "step " << i;
  }
  single.RunUntil(Millis(9));
  multi.RunUntil(Millis(9));
  EXPECT_EQ(ReadSimMetrics(reg_one), ReadSimMetrics(reg_three));

  single.Run();
  multi.Run();
  const SimMetrics last = ReadSimMetrics(reg_one);
  EXPECT_EQ(last, ReadSimMetrics(reg_three));
  const uint64_t total = MetricsChurn::kChains * MetricsChurn::kFirings;
  EXPECT_EQ(one.fired, total);
  EXPECT_EQ(three.fired, total);
  EXPECT_EQ(last.fired, total - fired_before);
  EXPECT_EQ(last.cancelled, total - fired_before);
  EXPECT_EQ(last.depth, 0.0);

  single.SetObservability(Observability{});
  multi.SetObservability(Observability{});
}

TEST(Stats, StatAccumulatorBasics) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  acc.Add(2.0);
  acc.Add(4.0);
  acc.Add(9.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, UtilizationTracksBusyFraction) {
  UtilizationTracker util;
  util.SetBusy(Millis(0), true);
  util.SetBusy(Millis(30), false);
  util.SetBusy(Millis(80), true);
  util.SetBusy(Millis(100), false);
  util.Finish(Millis(100));
  EXPECT_DOUBLE_EQ(util.Utilization(), 0.5);
  EXPECT_EQ(util.busy_time(), Millis(50));
}

}  // namespace
}  // namespace publishing
