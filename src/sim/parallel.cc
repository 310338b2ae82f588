#include "src/sim/parallel.h"

#include <cassert>
#include <limits>
#include <string>

namespace publishing {

namespace {

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();
constexpr uint32_t kNoDomain = UINT32_MAX;

}  // namespace

// ---- Simulator: the thin domain-view layer ----

Simulator::Simulator() : core_storage_(std::make_unique<SimCore>(this)) {
  core_ = core_storage_.get();
}

Simulator::Simulator(SimCore* core, uint32_t domain_id)
    : core_(core), domain_(domain_id) {}

Simulator::~Simulator() = default;

Simulator* Simulator::AddDomain() {
  assert(is_root() && "domains are created through the root Simulator");
  return core_->AddDomain();
}

void Simulator::SetObservability(const Observability& obs) {
  assert(is_root() && "event-loop instruments attach to the root domain");
  core_->SetObservability(obs);
}

void Simulator::FlushObsMetrics() {
  assert(is_root() && "metric flushes drive the whole core");
  core_->FlushMetrics();
}

void Simulator::ScheduleOnAfter(Simulator* target, SimDuration delay, Action action) {
  core_->ScheduleCross(this, target, delay, std::move(action));
}

bool Simulator::Step() {
  assert(is_root() && "only the root domain drives the engine");
  return core_->Step();
}

void Simulator::Run() {
  assert(is_root() && "only the root domain drives the engine");
  core_->Run();
}

void Simulator::RunUntil(SimTime deadline) {
  assert(is_root() && "only the root domain drives the engine");
  core_->RunUntil(deadline);
}

// ---- SimCore ----

SimCore::SimCore(Simulator* root) : root_(root) { domains_.push_back(root); }

Simulator* SimCore::AddDomain() {
  const uint32_t id = static_cast<uint32_t>(domains_.size());
  owned_domains_.emplace_back(new Simulator(this, id));
  Simulator* dom = owned_domains_.back().get();
  dom->now_ = root_->now_;
  domains_.push_back(dom);
  return dom;
}

void SimCore::SetObservability(const Observability& obs) {
  metrics_ = obs.metrics;
  eng_domain_events_.clear();
  eng_domain_depth_.clear();
  if (obs.metrics == nullptr) {
    events_scheduled_ = nullptr;
    events_fired_ = nullptr;
    events_cancelled_ = nullptr;
    queue_depth_ = nullptr;
    eng_events_ = nullptr;
    eng_handoffs_ = nullptr;
    return;
  }
  events_scheduled_ = obs.metrics->GetCounter("sim.events_scheduled");
  events_fired_ = obs.metrics->GetCounter("sim.events_fired");
  events_cancelled_ = obs.metrics->GetCounter("sim.events_cancelled");
  queue_depth_ = obs.metrics->GetGauge("sim.queue_depth");
  eng_events_ = obs.metrics->GetGauge("engine.events_executed");
  eng_handoffs_ = obs.metrics->GetGauge("engine.handoffs");
  // Only events after the attach count.
  pub_scheduled_ = 0;
  pub_fired_ = 0;
  pub_cancelled_ = 0;
  for (const Simulator* dom : domains_) {
    pub_scheduled_ += dom->tally_scheduled_;
    pub_fired_ += dom->tally_fired_;
    pub_cancelled_ += dom->tally_cancelled_;
  }
}

void SimCore::PublishMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  eng_events_->Set(static_cast<double>(stats_.events_executed));
  eng_handoffs_->Set(static_cast<double>(stats_.handoffs));
  if (eng_domain_events_.size() != domains_.size()) {
    eng_domain_events_.resize(domains_.size());
    eng_domain_depth_.resize(domains_.size());
    for (size_t d = 0; d < domains_.size(); ++d) {
      const MetricLabels labels = {{"domain", std::to_string(d)}};
      eng_domain_events_[d] = metrics_->GetGauge("engine.domain_events", labels);
      eng_domain_depth_[d] = metrics_->GetGauge("engine.domain_queue_depth", labels);
    }
  }
  uint64_t sum_scheduled = 0;
  uint64_t sum_fired = 0;
  uint64_t sum_cancelled = 0;
  size_t pending = 0;
  for (size_t d = 0; d < domains_.size(); ++d) {
    const Simulator* dom = domains_[d];
    eng_domain_events_[d]->Set(static_cast<double>(dom->tally_fired_));
    eng_domain_depth_[d]->Set(static_cast<double>(dom->queue_.size()));
    sum_scheduled += dom->tally_scheduled_;
    sum_fired += dom->tally_fired_;
    sum_cancelled += dom->tally_cancelled_;
    pending += dom->queue_.size();
  }
  events_scheduled_->Add(sum_scheduled - pub_scheduled_);
  events_fired_->Add(sum_fired - pub_fired_);
  events_cancelled_->Add(sum_cancelled - pub_cancelled_);
  pub_scheduled_ = sum_scheduled;
  pub_fired_ = sum_fired;
  pub_cancelled_ = sum_cancelled;
  queue_depth_->Set(static_cast<double>(pending));
}

void SimCore::ScheduleCross(Simulator* source, Simulator* target, SimDuration delay,
                            SimCallback action) {
  assert(target != nullptr && target->core_ == this &&
         "cross-domain scheduling stays within one core");
  assert(delay >= 0 && "cannot hand off into the past");
  target->queue_.Insert(source->now_ + delay, kHandoffSeqBit | ++handoff_seq_,
                        std::move(action));
  ++target->tally_scheduled_;
  ++stats_.handoffs;
}

uint32_t SimCore::NextDomain() const {
  uint32_t best = kNoDomain;
  SimTime best_when = 0;
  for (uint32_t d = 0; d < domains_.size(); ++d) {
    const Simulator* dom = domains_[d];
    if (dom->queue_.empty()) {
      continue;
    }
    const SimTime when = dom->queue_.top_when();
    if (best == kNoDomain || when < best_when) {
      best = d;
      best_when = when;
    }
  }
  return best;
}

void SimCore::AdvanceClocks(SimTime t) {
  for (Simulator* dom : domains_) {
    if (dom->now_ < t) {
      dom->now_ = t;
    }
  }
}

// Pops and runs the next event of `dom`, maintaining the global clock and
// the counters.
inline void SimCore::ExecuteNext(Simulator* dom) {
  SimTime when;
  // A control event may read other domains' state (clocks included); bring
  // every clock up to date first.
  if (dom == root_ && domains_.size() > 1) {
    AdvanceClocks(dom->queue_.top_when());
  }
  SimCallback action = dom->queue_.PopTop(&when);
  assert(when >= dom->now_);
  dom->now_ = when;
  root_->now_ = when;  // the root clock is the global clock
  ++dom->tally_fired_;
  ++stats_.events_executed;
  action();
}

uint64_t SimCore::Loop(SimTime deadline, uint64_t max_events) {
  uint64_t executed = 0;
  while (executed < max_events) {
    const uint32_t d = NextDomain();
    if (d == kNoDomain) {
      break;
    }
    Simulator* dom = domains_[d];
    if (dom->queue_.top_when() > deadline) {
      break;
    }
    ExecuteNext(dom);
    ++executed;
  }
  return executed;
}

bool SimCore::Step() {
  const bool ran = Loop(kMaxTime, 1) == 1;
  PublishMetrics();
  return ran;
}

void SimCore::Run() {
  Loop(kMaxTime, kNoLimit);
  PublishMetrics();
}

void SimCore::RunUntil(SimTime deadline) {
  Loop(deadline, kNoLimit);
  AdvanceClocks(deadline);
  PublishMetrics();
}

}  // namespace publishing
