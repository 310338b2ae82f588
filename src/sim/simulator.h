// Deterministic discrete-event simulator.
//
// Everything in the reproduction — network media, transport retransmission
// timers, watchdog timeouts, disk service times, user-program execution —
// runs as events on one of these.  Events scheduled for the same instant fire
// in scheduling order (a stable sequence number breaks ties), which makes
// whole-system runs bit-for-bit reproducible; the crash/recovery equivalence
// tests depend on that.
//
// A Simulator is a *domain view* of a SimCore (src/sim/parallel.h).  A
// default-constructed Simulator is the root (control) domain of its own core;
// AddDomain() creates additional domains with private event heaps, and one
// sequential loop runs every domain's events in a fixed total order.  The
// slab-pooled heap itself lives in src/sim/event_queue.h.

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

class SimCore;

class Simulator {
 public:
  using Action = SimCallback;

  // Root constructor: this Simulator is domain 0 (the control domain) of a
  // fresh core.
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ---- Domain / engine configuration (root only) ----

  // Creates a new domain sharing this core.  Components wired to the returned
  // view schedule into that domain's private queue; the root's Run/RunUntil
  // drive all domains in one deterministic virtual time.
  Simulator* AddDomain();

  uint32_t domain() const { return domain_; }
  bool is_root() const { return domain_ == 0; }
  SimCore& core() { return *core_; }

  SimTime Now() const { return now_; }

  // Resolves the event-loop instruments (counts + queue-depth gauge).  The
  // default null Observability detaches them.  Root only.  Every domain
  // tallies its events in plain counters; the core publishes the tallies at
  // its flush points (after each Step, Run and RunUntil, and on
  // FlushObsMetrics), so a registry attached mid-run counts only later
  // events.
  void SetObservability(const Observability& obs);

  // Publishes the per-domain event tallies and engine.* gauges to the
  // attached registry immediately.  Root only — the telemetry sampler calls
  // this before each scrape so the registry is current mid-run.
  void FlushObsMetrics();

  // Schedules `action` to run at absolute time `when` (>= Now()) on this
  // domain.  Same-instant events on one domain fire in scheduling order.
  EventId ScheduleAt(SimTime when, Action action) {
    assert(when >= now_ && "cannot schedule into the past");
    ++tally_scheduled_;
    return queue_.Insert(when, ++next_seq_, std::move(action));
  }

  // Schedules `action` to run `delay` from now on this domain.
  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  // Schedules `action` onto another domain of the same core, `delay` from
  // this domain's now.  Handoffs at one instant fire after that instant's
  // local events on the target, in the order the sends executed.
  void ScheduleOnAfter(Simulator* target, SimDuration delay, Action action);

  // Cancels a pending event scheduled on this domain.  Returns false if the
  // handle is stale (the event already ran or was already cancelled) or never
  // existed.
  bool Cancel(EventId id) {
    if (!queue_.Cancel(id)) {
      return false;
    }
    ++tally_cancelled_;
    return true;
  }

  // ---- Engine entry points (root only; drive every domain of the core) ----

  // Runs the single globally next event.  Returns false if all queues are
  // empty.
  bool Step();

  // Runs events until every domain's queue drains.
  void Run();

  // Runs events with firing time <= `deadline`, then advances every domain
  // clock to `deadline` (even if the queues drained earlier).
  void RunUntil(SimTime deadline);

  void RunFor(SimDuration span) { RunUntil(now_ + span); }

  // Pending events on this domain's private queue.
  size_t pending_events() const { return queue_.size(); }

  // Number of slab nodes ever materialized on this domain.  Bounded by the
  // peak number of simultaneously pending events (regression test pins this:
  // scheduling and retiring 10M events must not grow it past the peak).
  size_t slab_slots() const { return queue_.slab_slots(); }

 private:
  friend class SimCore;

  // Domain-view constructor (used by SimCore::AddDomain).
  Simulator(SimCore* core, uint32_t domain_id);

  SimCore* core_ = nullptr;                  // the shared engine
  std::unique_ptr<SimCore> core_storage_;    // root owns the core
  uint32_t domain_ = 0;

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;  // band-0 FIFO order for this domain
  EventHeap queue_;

  // Event tallies, published by the core at its flush points.  Fired events
  // double as the per-domain engine.domain_events gauge.
  uint64_t tally_scheduled_ = 0;
  uint64_t tally_fired_ = 0;
  uint64_t tally_cancelled_ = 0;
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
