// Multi-domain sequential virtual-time core.
//
// A SimCore owns a set of *domains*, each a `Simulator` view with a private
// event heap (src/sim/event_queue.h).  Domain 0 is the control domain
// (supervisors, recovery/migration managers, test pokes); domains 1..D-1
// partition the workload (one per media segment in src/internet).  One loop
// on the calling thread executes every domain's events in a fixed total
// order:
//
//   (when, domain-id, band, sequence)
//
// where band 0 = locally scheduled events ordered by the domain's own FIFO
// sequence number, and band 1 = cross-domain handoffs
// (Simulator::ScheduleOnAfter) ordered by a global handoff sequence assigned
// in the order the sends executed.  Every domain keeps its own clock; the
// root clock is the global clock, and a control event first brings every
// domain clock up to its own time.  Every internetwork and migration artifact
// encodes this order, so it is fixed (DESIGN.md §15).

#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace publishing {

class SimCore {
 public:
  // Engine-level counters for benches and tests.
  struct EngineStats {
    uint64_t events_executed = 0;
    uint64_t handoffs = 0;  // cross-domain events delivered
  };

  explicit SimCore(Simulator* root);

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  // Creates a new domain (a Simulator view owned by this core).  The returned
  // pointer stays valid until the root Simulator is destroyed.
  Simulator* AddDomain();

  // Cross-domain scheduling (via Simulator::ScheduleOnAfter): inserts the
  // event into the target queue with the next handoff sequence.
  void ScheduleCross(Simulator* source, Simulator* target, SimDuration delay,
                     SimCallback action);

  // Engine entry points (root Simulator forwards here).
  bool Step();
  void Run();
  void RunUntil(SimTime deadline);

  const EngineStats& engine_stats() const { return stats_; }

  // Metrics plumbing (root Simulator forwards here).
  void SetObservability(const Observability& obs);

  // Publishes the per-domain tallies and the engine.* gauges now — the
  // telemetry sampler's pre-scrape flush point.
  void FlushMetrics() { PublishMetrics(); }

 private:
  // The engine loop: executes events in the global order until every queue
  // drains, the next event lies past `deadline`, or `max_events` have run.
  // Returns the number of events executed.
  uint64_t Loop(SimTime deadline, uint64_t max_events);

  // Pops and runs the next event of `dom` (clocks, counters).
  void ExecuteNext(Simulator* dom);

  // Advances every domain (and the global clock) to `t` if behind.
  void AdvanceClocks(SimTime t);

  // Returns the id of the domain holding the globally next event, or
  // UINT32_MAX if all queues are empty.  Key: (when, domain-id).
  uint32_t NextDomain() const;

  // Flushes per-domain schedule/fire/cancel tallies into attached counters.
  void PublishMetrics();

  Simulator* root_;  // == domains_[0]
  std::vector<Simulator*> domains_;
  std::vector<std::unique_ptr<Simulator>> owned_domains_;

  uint64_t handoff_seq_ = 0;  // global deterministic handoff order

  EngineStats stats_;

  // Metrics: the sim.* instruments, fed from the per-domain tallies.
  Counter* events_scheduled_ = nullptr;
  Counter* events_fired_ = nullptr;
  Counter* events_cancelled_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  uint64_t pub_scheduled_ = 0;  // already-published tally baselines
  uint64_t pub_fired_ = 0;
  uint64_t pub_cancelled_ = 0;

  // Engine introspection gauges (engine.*): the EngineStats fields plus
  // per-domain execution/queue-depth series, refreshed at every flush point.
  MetricsRegistry* metrics_ = nullptr;
  Gauge* eng_events_ = nullptr;
  Gauge* eng_handoffs_ = nullptr;
  std::vector<Gauge*> eng_domain_events_;
  std::vector<Gauge*> eng_domain_depth_;
};

}  // namespace publishing

#endif  // SRC_SIM_PARALLEL_H_
