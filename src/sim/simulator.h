// Deterministic discrete-event simulator.
//
// Everything in the reproduction — network media, transport retransmission
// timers, watchdog timeouts, disk service times, user-program execution —
// runs as events on one of these.  Events scheduled for the same instant fire
// in scheduling order (a stable sequence number breaks ties), which makes
// whole-system runs bit-for-bit reproducible; the crash/recovery equivalence
// tests depend on that.
//
// One engine has one event heap (src/sim/event_queue.h) and one clock, both
// owned by its root: a default-constructed Simulator, domain 0, the control
// domain.  AddDomain() returns further Simulators that are tags — the root
// plus a domain id.  Every view schedules into the root's heap and reads the
// root's clock; the domain id only orders same-instant events (DESIGN.md
// §15).

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/observability.h"
#include "src/sim/callback.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace publishing {

class Simulator {
 public:
  using Action = SimCallback;

  // Engine-level counters for benches and tests.
  struct EngineStats {
    uint64_t events_executed = 0;
    uint64_t handoffs = 0;  // cross-domain events delivered
  };

  // Root constructor: this Simulator is domain 0 (the control domain) of a
  // fresh engine.
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- Domain / engine configuration (root only) ----

  // Creates a new domain of this engine.  Events scheduled through the
  // returned view carry its domain id; the root's Run/RunUntil drive every
  // domain in one deterministic virtual time.  The view stays valid until the
  // root is destroyed.
  Simulator* AddDomain();

  uint32_t domain() const { return domain_; }
  bool is_root() const { return domain_ == 0; }

  // The root Simulator.  The benchmark harness reads engine_stats() through
  // it; other code calls engine_stats() directly.
  Simulator& core() { return *root_; }

  // The engine's clock: every domain view reads the same one.
  SimTime Now() const { return engine().now; }

  const EngineStats& engine_stats() const { return engine().stats; }

  // Resolves the event-loop instruments (counts + queue-depth gauge).  The
  // default null Observability detaches them.  Root only.  The engine tallies
  // events in plain counters and publishes them at its flush points (after
  // each Step, Run and RunUntil, and on FlushObsMetrics), so a registry
  // attached mid-run counts only later events.
  void SetObservability(const Observability& obs);

  // Publishes the event tallies and engine.* gauges to the attached registry
  // immediately.  Root only — the telemetry sampler calls this before each
  // scrape so the registry is current mid-run.
  void FlushObsMetrics();

  // Schedules `action` to run at absolute time `when` (>= Now()) on this
  // domain.  Same-instant events on one domain fire in scheduling order.
  EventId ScheduleAt(SimTime when, Action action) {
    Engine& e = engine();
    assert(when >= e.now && "cannot schedule into the past");
    return e.Insert(when, domain_, ++e.next_seq, std::move(action));
  }

  // Schedules `action` to run `delay` from now on this domain.
  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(Now() + delay, std::move(action));
  }

  // Schedules `action` onto another domain of the same engine, `delay` from
  // now.  Handoffs at one instant fire after that instant's local events on
  // the target, in the order the sends executed.
  void ScheduleOnAfter(Simulator* target, SimDuration delay, Action action);

  // Cancels a pending event, whichever domain view scheduled it.  Returns
  // false if the handle is stale (the event already ran or was already
  // cancelled) or never existed.
  bool Cancel(EventId id) {
    Engine& e = engine();
    uint32_t domain = 0;
    if (!e.heap.Cancel(id, &domain)) {
      return false;
    }
    --e.domains[domain].pending;
    ++e.cancelled;
    return true;
  }

  // ---- Engine entry points (root only; drive every domain) ----

  // Runs the single globally next event.  Returns false if the heap is
  // empty.
  bool Step();

  // Runs events until the heap drains.
  void Run();

  // Runs events with firing time <= `deadline`, then advances the clock to
  // `deadline` (even if the heap drained earlier).
  void RunUntil(SimTime deadline);

  void RunFor(SimDuration span) { RunUntil(Now() + span); }

  // Pending events on this domain.
  size_t pending_events() const { return engine().domains[domain_].pending; }

  // Number of slab nodes ever materialized in the engine's heap.  Bounded by
  // the peak number of simultaneously pending events (regression test pins
  // this: scheduling and retiring 10M events must not grow it past the peak).
  size_t slab_slots() const { return engine().heap.slab_slots(); }

 private:
  // Per-domain tallies.  Fired events double as the engine.domain_events
  // gauge and pending ones as engine.domain_queue_depth.
  struct DomainTally {
    uint64_t fired = 0;
    size_t pending = 0;
  };

  // The state of the whole engine, owned by the root.
  struct Engine {
    EventHeap heap;
    SimTime now = 0;
    uint64_t next_seq = 0;  // numbers both bands; kHandoffSeqBit marks band 1
    std::vector<DomainTally> domains;               // indexed by domain id
    std::vector<std::unique_ptr<Simulator>> views;  // domains 1..D-1
    EngineStats stats;
    uint64_t scheduled = 0;  // published at the flush points
    uint64_t cancelled = 0;

    // Metrics: the sim.* instruments, fed from the tallies, and the engine.*
    // gauges (EngineStats plus per-domain series), refreshed at every flush
    // point.
    MetricsRegistry* metrics = nullptr;
    Counter* events_scheduled = nullptr;
    Counter* events_fired = nullptr;
    Counter* events_cancelled = nullptr;
    Gauge* queue_depth = nullptr;
    Gauge* eng_events = nullptr;
    Gauge* eng_handoffs = nullptr;
    std::vector<Gauge*> eng_domain_events;
    std::vector<Gauge*> eng_domain_depth;
    uint64_t pub_scheduled = 0;  // tallies already published
    uint64_t pub_fired = 0;
    uint64_t pub_cancelled = 0;

    EventId Insert(SimTime when, uint32_t domain, uint64_t seq, Action&& action) {
      ++scheduled;
      ++domains[domain].pending;
      return heap.Insert(when, domain, seq, std::move(action));
    }
  };

  // Domain-view constructor (used by AddDomain).
  Simulator(Simulator* root, uint32_t domain) : root_(root), domain_(domain) {}

  Engine& engine() const { return *root_->engine_; }

  // The engine loop: executes events in (when, domain, band, seq) order until
  // the heap drains, the next event lies past `deadline`, or `max_events`
  // have run.  Returns the number of events executed.
  uint64_t Loop(SimTime deadline, uint64_t max_events);

  // Flushes the tallies into the attached instruments.
  void PublishMetrics();

  Simulator* root_;                 // this, on the root
  uint32_t domain_ = 0;
  std::unique_ptr<Engine> engine_;  // root only
};

// Re-arms itself every `period` until stopped.  Used for watchdog "are you
// alive" probes (§4.6) and keep-alive traffic (§3.3.2).
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, SimDuration period, std::function<void()> body)
      : sim_(sim), period_(period), body_(std::move(body)) {}

  ~PeriodicTask() { Stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start() {
    if (!running_) {
      running_ = true;
      Arm();
    }
  }

  void Stop() {
    if (running_) {
      running_ = false;
      sim_->Cancel(pending_);
      pending_ = EventId{};
    }
  }

  bool running() const { return running_; }

 private:
  void Arm() {
    pending_ = sim_->ScheduleAfter(period_, [this] {
      pending_ = EventId{};
      if (!running_) {
        return;
      }
      body_();
      // The body may have stopped, or stopped-and-restarted, this task; only
      // re-arm if it did not already arm a fresh timer itself.
      if (running_ && !pending_.IsValid()) {
        Arm();
      }
    });
  }

  Simulator* sim_;
  SimDuration period_;
  std::function<void()> body_;
  bool running_ = false;
  EventId pending_;
};

}  // namespace publishing

#endif  // SRC_SIM_SIMULATOR_H_
