#include "src/sim/simulator.h"

#include <cassert>
#include <limits>
#include <string>

namespace publishing {

namespace {

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

}  // namespace

Simulator::Simulator() : root_(this), engine_(std::make_unique<Engine>()) {
  engine_->domains.emplace_back();
}

Simulator::~Simulator() = default;

Simulator* Simulator::AddDomain() {
  assert(is_root() && "domains are created through the root Simulator");
  Engine& e = engine();
  const uint32_t id = static_cast<uint32_t>(e.domains.size());
  e.domains.emplace_back();
  e.views.emplace_back(new Simulator(root_, id));
  return e.views.back().get();
}

void Simulator::SetObservability(const Observability& obs) {
  assert(is_root() && "event-loop instruments attach to the root domain");
  Engine& e = engine();
  e.metrics = obs.metrics;
  e.eng_domain_events.clear();
  e.eng_domain_depth.clear();
  if (e.metrics == nullptr) {
    return;
  }
  e.events_scheduled = e.metrics->GetCounter("sim.events_scheduled");
  e.events_fired = e.metrics->GetCounter("sim.events_fired");
  e.events_cancelled = e.metrics->GetCounter("sim.events_cancelled");
  e.queue_depth = e.metrics->GetGauge("sim.queue_depth");
  e.eng_events = e.metrics->GetGauge("engine.events_executed");
  e.eng_handoffs = e.metrics->GetGauge("engine.handoffs");
  // Only events after the attach count.
  e.pub_scheduled = e.scheduled;
  e.pub_fired = e.stats.events_executed;
  e.pub_cancelled = e.cancelled;
}

void Simulator::FlushObsMetrics() {
  assert(is_root() && "metric flushes drive the whole engine");
  PublishMetrics();
}

void Simulator::PublishMetrics() {
  Engine& e = engine();
  if (e.metrics == nullptr) {
    return;
  }
  e.eng_events->Set(static_cast<double>(e.stats.events_executed));
  e.eng_handoffs->Set(static_cast<double>(e.stats.handoffs));
  if (e.eng_domain_events.size() != e.domains.size()) {
    e.eng_domain_events.resize(e.domains.size());
    e.eng_domain_depth.resize(e.domains.size());
    for (size_t d = 0; d < e.domains.size(); ++d) {
      const MetricLabels labels = {{"domain", std::to_string(d)}};
      e.eng_domain_events[d] = e.metrics->GetGauge("engine.domain_events", labels);
      e.eng_domain_depth[d] = e.metrics->GetGauge("engine.domain_queue_depth", labels);
    }
  }
  for (size_t d = 0; d < e.domains.size(); ++d) {
    e.eng_domain_events[d]->Set(static_cast<double>(e.domains[d].fired));
    e.eng_domain_depth[d]->Set(static_cast<double>(e.domains[d].pending));
  }
  e.events_scheduled->Add(e.scheduled - e.pub_scheduled);
  e.events_fired->Add(e.stats.events_executed - e.pub_fired);
  e.events_cancelled->Add(e.cancelled - e.pub_cancelled);
  e.pub_scheduled = e.scheduled;
  e.pub_fired = e.stats.events_executed;
  e.pub_cancelled = e.cancelled;
  e.queue_depth->Set(static_cast<double>(e.heap.size()));
}

void Simulator::ScheduleOnAfter(Simulator* target, SimDuration delay, Action action) {
  assert(target != nullptr && target->root_ == root_ &&
         "cross-domain scheduling stays within one engine");
  assert(delay >= 0 && "cannot hand off into the past");
  Engine& e = engine();
  e.Insert(e.now + delay, target->domain_, kHandoffSeqBit | ++e.next_seq, std::move(action));
  ++e.stats.handoffs;
}

uint64_t Simulator::Loop(SimTime deadline, uint64_t max_events) {
  Engine& e = engine();
  uint64_t executed = 0;
  while (executed < max_events && !e.heap.empty() && e.heap.top_when() <= deadline) {
    SimTime when = 0;
    uint32_t domain = 0;
    Action action = e.heap.PopTop(&when, &domain);
    assert(when >= e.now);
    e.now = when;
    DomainTally& tally = e.domains[domain];
    ++tally.fired;
    --tally.pending;
    ++e.stats.events_executed;
    ++executed;
    action();
  }
  return executed;
}

bool Simulator::Step() {
  assert(is_root() && "only the root domain drives the engine");
  const bool ran = Loop(kMaxTime, 1) == 1;
  PublishMetrics();
  return ran;
}

void Simulator::Run() {
  assert(is_root() && "only the root domain drives the engine");
  Loop(kMaxTime, kNoLimit);
  PublishMetrics();
}

void Simulator::RunUntil(SimTime deadline) {
  assert(is_root() && "only the root domain drives the engine");
  Loop(deadline, kNoLimit);
  Engine& e = engine();
  if (e.now < deadline) {
    e.now = deadline;
  }
  PublishMetrics();
}

}  // namespace publishing
