// Tests for the telemetry timeline and SLO health watchdog (DESIGN.md §16):
// ring-buffer bounds (TimeSeries and the Tracer's event ring), sampler
// scraping/export semantics, the two determinism contracts — the exported
// timeline is byte-identical at any worker count, and attaching the sampler
// does not perturb a single virtual-time observable — and the per-kind SLO
// rule arithmetic with its alert-once-per-episode discipline.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/internet/internet.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/lifecycle.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/oracle.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/sim/simulator.h"
#include "tests/json_checker.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

// ---------------------------------------------------------------------------
// Ring-buffer bounds
// ---------------------------------------------------------------------------

TEST(TimeSeriesRing, WraparoundKeepsNewestAndCountsDropped) {
  TimeSeries series(TimeSeriesKind::kGauge, /*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    series.Push(Millis(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.size(), 8u);
  EXPECT_EQ(series.dropped(), 12u);
  // Oldest retained point is #12; points come back oldest-first, in order.
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series.at(i).value, static_cast<double>(12 + i));
    EXPECT_EQ(series.at(i).time, Millis(12 + i));
  }
  EXPECT_DOUBLE_EQ(series.back().value, 19.0);
}

TEST(TimeSeriesRing, BelowCapacityDropsNothing) {
  TimeSeries series(TimeSeriesKind::kCounter, /*capacity=*/8);
  for (int i = 0; i < 5; ++i) {
    series.Push(Millis(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.size(), 5u);
  EXPECT_EQ(series.dropped(), 0u);
  EXPECT_DOUBLE_EQ(series.at(0).value, 0.0);
  EXPECT_DOUBLE_EQ(series.back().value, 4.0);
}

TEST(TracerRing, WraparoundCountsDroppedAndStillExports) {
  Simulator sim;
  Tracer tracer(&sim, /*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.Instant("instant" + std::to_string(i), "test", obs_track::kSim);
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // Only the newest 8 remain: #12..#19.
  EXPECT_FALSE(tracer.Contains("instant11"));
  EXPECT_TRUE(tracer.Contains("instant12"));
  EXPECT_TRUE(tracer.Contains("instant19"));
  // The export is still well-formed JSON (track metadata included).
  const std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// ---------------------------------------------------------------------------
// Sampler scraping and export
// ---------------------------------------------------------------------------

TEST(TelemetrySampler, ScrapesCountersGaugesAndExpandsHistograms) {
  Simulator sim;
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("app.requests");
  Gauge* depth = registry.GetGauge("app.depth");
  Histogram* latency = registry.GetHistogram("app.latency_ms");

  TimelineConfig config;
  config.interval = Millis(10);
  TelemetrySampler sampler(&sim, &registry, config);
  sampler.Start();

  sim.ScheduleAt(Millis(5), [&] {
    requests->Add(3);
    depth->Set(7.0);
    latency->Observe(2.0);
  });
  sim.ScheduleAt(Millis(15), [&] { requests->Add(2); });
  sim.RunUntil(Millis(25));
  sampler.Stop();

  EXPECT_EQ(sampler.samples(), 2u);  // scrapes at 10ms and 20ms
  const TimeSeries* req = sampler.Find("app.requests");
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->kind(), TimeSeriesKind::kCounter);
  ASSERT_EQ(req->size(), 2u);
  EXPECT_DOUBLE_EQ(req->at(0).value, 3.0);
  EXPECT_DOUBLE_EQ(req->at(1).value, 5.0);

  const TimeSeries* gauge = sampler.Find("app.depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->back().value, 7.0);

  // Histograms expand into count/p50/p99 sub-series.
  ASSERT_NE(sampler.Find("app.latency_ms.count"), nullptr);
  ASSERT_NE(sampler.Find("app.latency_ms.p50"), nullptr);
  ASSERT_NE(sampler.Find("app.latency_ms.p99"), nullptr);
  EXPECT_DOUBLE_EQ(sampler.Find("app.latency_ms.count")->back().value, 1.0);
  EXPECT_DOUBLE_EQ(sampler.Find("app.latency_ms.p50")->back().value, 2.0);

  const std::string json = sampler.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"app.requests\""), std::string::npos);
  const std::string csv = sampler.ToCsv();
  EXPECT_NE(csv.find("\"app.depth\",gauge,"), std::string::npos);
}

TEST(TelemetrySampler, EmptyHistogramSamplesAsZeroPercentiles) {
  Simulator sim;
  MetricsRegistry registry;
  registry.GetHistogram("app.latency_ms");  // never observed
  TelemetrySampler sampler(&sim, &registry);
  sampler.SampleNow();
  EXPECT_DOUBLE_EQ(sampler.Find("app.latency_ms.p50")->back().value, 0.0);
  EXPECT_DOUBLE_EQ(sampler.Find("app.latency_ms.p99")->back().value, 0.0);
}

TEST(TelemetrySampler, IncludePrefixesBoundTheSeriesSet) {
  Simulator sim;
  MetricsRegistry registry;
  registry.GetCounter("keep.this")->Add();
  registry.GetCounter("drop.this")->Add();
  TimelineConfig config;
  config.include_prefixes = {"keep."};
  TelemetrySampler sampler(&sim, &registry, config);
  sampler.SampleNow();
  EXPECT_NE(sampler.Find("keep.this"), nullptr);
  EXPECT_EQ(sampler.Find("drop.this"), nullptr);
}

TEST(TelemetrySampler, RingWraparoundInLongRuns) {
  Simulator sim;
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("app.val");
  TimelineConfig config;
  config.interval = Millis(10);
  config.capacity = 4;
  TelemetrySampler sampler(&sim, &registry, config);
  sampler.Start();
  sim.ScheduleAt(Millis(1), [&] { g->Set(1.0); });
  sim.RunUntil(Millis(105));
  sampler.Stop();
  EXPECT_EQ(sampler.samples(), 10u);
  const TimeSeries* series = sampler.Find("app.val");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 4u);
  EXPECT_EQ(series->dropped(), 6u);
  EXPECT_EQ(series->at(0).time, Millis(70));  // oldest retained scrape
}

TEST(TelemetrySampler, HorizonStopsTheTickSoRunToQuiescenceTerminates) {
  Simulator sim;
  MetricsRegistry registry;
  registry.GetCounter("app.x");
  TimelineConfig config;
  config.interval = Millis(10);
  config.horizon = Millis(50);
  TelemetrySampler sampler(&sim, &registry, config);
  sampler.Start();
  sim.Run();  // would never return if the tick re-armed forever
  EXPECT_EQ(sampler.samples(), 5u);
  EXPECT_FALSE(sampler.running());
}

// ---------------------------------------------------------------------------
// Determinism contracts (system-level, on a small internetwork)
// ---------------------------------------------------------------------------

struct SmallRunResult {
  std::string oracle_report;
  uint64_t received = 0;
};

SmallRunResult RunSmallInternet(bool with_sampler) {
  InternetConfig config;
  config.segments = 2;
  config.nodes_per_segment = 2;
  config.seed = 5;

  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  MetricsRegistry registry;
  Internet net(config);
  LifecycleTracker lifecycle(&net.sim(), /*max_messages=*/1 << 14);
  lifecycle.AttachOracle(&oracle);
  Observability obs;
  obs.lifecycle = &lifecycle;
  if (with_sampler) {
    obs.metrics = &registry;
  }
  net.EnableObservability(obs);

  std::unique_ptr<TelemetrySampler> sampler;
  if (with_sampler) {
    TimelineConfig tc;
    tc.interval = Millis(100);
    tc.include_prefixes = {"engine.", "recorder.", "transport.", "sim."};
    sampler = std::make_unique<TelemetrySampler>(&net.sim(), &registry, tc);
    sampler->Start();
  }

  net.registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  net.registry().Register("pinger",
                          [] { return std::make_unique<PingerProgram>(20); });
  auto echo = net.Spawn(Internet::ProcessingNode(0, 0), "echo");
  auto pinger = net.Spawn(Internet::ProcessingNode(1, 0), "pinger",
                          {Link{*echo, 1, 0, 0}});
  net.RunFor(Seconds(3));

  SmallRunResult result;
  if (sampler != nullptr) {
    sampler->Stop();
  }
  oracle.CheckQuiescent();
  result.oracle_report = oracle.ReportJson();
  const auto* p = dynamic_cast<const PingerProgram*>(
      net.kernel(Internet::ProcessingNode(1, 0))->ProgramFor(*pinger));
  result.received = p != nullptr ? p->received() : 0;
  net.EnableObservability(Observability{});
  return result;
}

TEST(TelemetrySampler, AttachingTheSamplerDoesNotPerturbVirtualTime) {
  const SmallRunResult bare = RunSmallInternet(/*with_sampler=*/false);
  const SmallRunResult sampled = RunSmallInternet(/*with_sampler=*/true);
  EXPECT_EQ(bare.oracle_report, sampled.oracle_report);
  EXPECT_EQ(bare.received, sampled.received);
  EXPECT_GT(bare.received, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog rule arithmetic
// ---------------------------------------------------------------------------

// Drives the sampler by hand: set instruments, advance virtual time, scrape.
struct WatchdogHarness {
  Simulator sim;
  MetricsRegistry registry;
  TelemetrySampler sampler{&sim, &registry};
  HealthWatchdog watchdog{&sampler};

  void StepTo(SimTime t) {
    sim.ScheduleAt(t, [] {});
    sim.RunUntil(t + 1);
  }
  // One window: advance to `t`, publish `value`, scrape, evaluate.
  void Window(SimTime t, Gauge* gauge, double value) {
    StepTo(t);
    gauge->Set(value);
    sampler.SampleNow();
  }
};

TEST(HealthWatchdog, CeilingFiresAfterConsecutiveWindowsOncePerEpisode) {
  WatchdogHarness h;
  Gauge* load = h.registry.GetGauge("app.load");
  h.watchdog.AddRule({.name = "load_ceiling",
                      .series = "app.load",
                      .kind = SloRuleKind::kCeiling,
                      .threshold = 10.0,
                      .windows = 2,
                      .min_samples = 1});
  h.Window(Millis(10), load, 20.0);  // breach 1 of 2 — no alert yet
  EXPECT_TRUE(h.watchdog.alerts().empty());
  h.Window(Millis(20), load, 30.0);  // breach 2 — alert
  ASSERT_EQ(h.watchdog.alerts().size(), 1u);
  EXPECT_EQ(h.watchdog.alerts()[0].rule, "load_ceiling");
  EXPECT_EQ(h.watchdog.alerts()[0].windows, 2u);
  EXPECT_DOUBLE_EQ(h.watchdog.alerts()[0].value, 30.0);
  h.Window(Millis(30), load, 40.0);  // still breaching: same episode, no re-alert
  EXPECT_EQ(h.watchdog.alerts().size(), 1u);
  h.Window(Millis(40), load, 5.0);   // clears the episode
  h.Window(Millis(50), load, 50.0);  // breach 1 of 2 again
  h.Window(Millis(60), load, 50.0);  // breach 2 — second episode alerts
  EXPECT_EQ(h.watchdog.alerts().size(), 2u);
  EXPECT_EQ(h.watchdog.breaches("load_ceiling"), 2u);
}

TEST(HealthWatchdog, MinSamplesMutesStartup) {
  WatchdogHarness h;
  Gauge* load = h.registry.GetGauge("app.load");
  h.watchdog.AddRule({.name = "load_ceiling",
                      .series = "app.load",
                      .kind = SloRuleKind::kCeiling,
                      .threshold = 10.0,
                      .windows = 1,
                      .min_samples = 3});
  h.Window(Millis(10), load, 99.0);
  h.Window(Millis(20), load, 99.0);
  EXPECT_TRUE(h.watchdog.alerts().empty());  // only 2 points so far
  h.Window(Millis(30), load, 99.0);
  EXPECT_EQ(h.watchdog.alerts().size(), 1u);
}

TEST(HealthWatchdog, RateCeilingMeasuresPerMillisecondSlope) {
  WatchdogHarness h;
  Gauge* cpu = h.registry.GetGauge("rec.cpu_ms");
  h.watchdog.AddRule({.name = "saturation",
                      .series = "rec.cpu_ms",
                      .kind = SloRuleKind::kRateCeiling,
                      .threshold = 0.5,
                      .windows = 1,
                      .min_samples = 2});
  h.Window(Millis(10), cpu, 1.0);
  h.Window(Millis(20), cpu, 4.0);  // slope 3ms/10ms = 0.3 — under the ceiling
  EXPECT_TRUE(h.watchdog.alerts().empty());
  h.Window(Millis(30), cpu, 12.0);  // slope 8ms/10ms = 0.8 — breach
  ASSERT_EQ(h.watchdog.alerts().size(), 1u);
  EXPECT_DOUBLE_EQ(h.watchdog.alerts()[0].value, 0.8);
}

TEST(HealthWatchdog, SustainedGrowthNeedsStreakAndTotalGrowth) {
  WatchdogHarness h;
  Gauge* depth = h.registry.GetGauge("q.depth");
  h.watchdog.AddRule({.name = "growth",
                      .series = "q.depth",
                      .kind = SloRuleKind::kSustainedGrowth,
                      .threshold = 10.0,
                      .windows = 3,
                      .min_samples = 2});
  // Three consecutive growth windows but total growth 3 < 10: no alert.
  h.Window(Millis(10), depth, 1.0);
  h.Window(Millis(20), depth, 2.0);
  h.Window(Millis(30), depth, 3.0);
  h.Window(Millis(40), depth, 4.0);
  EXPECT_TRUE(h.watchdog.alerts().empty());
  // Reset, then a streak that also clears the total-growth bar.
  h.Window(Millis(50), depth, 4.0);  // flat: clears the streak
  h.Window(Millis(60), depth, 8.0);
  h.Window(Millis(70), depth, 12.0);
  h.Window(Millis(80), depth, 16.0);  // 3 growth windows, total 12 >= 10
  ASSERT_EQ(h.watchdog.alerts().size(), 1u);
  EXPECT_EQ(h.watchdog.alerts()[0].rule, "growth");
}

TEST(HealthWatchdog, FlatlineDetectsStarvation) {
  WatchdogHarness h;
  Gauge* events = h.registry.GetGauge("engine.domain_events");
  h.watchdog.AddRule({.name = "starved",
                      .series = "engine.domain_events*",
                      .kind = SloRuleKind::kFlatline,
                      .threshold = 0.0,
                      .windows = 3,
                      .min_samples = 2});
  h.Window(Millis(10), events, 100.0);
  h.Window(Millis(20), events, 150.0);  // progressing
  h.Window(Millis(30), events, 150.0);  // flat 1
  h.Window(Millis(40), events, 150.0);  // flat 2
  EXPECT_TRUE(h.watchdog.alerts().empty());
  h.Window(Millis(50), events, 150.0);  // flat 3 — alert
  ASSERT_EQ(h.watchdog.alerts().size(), 1u);
  EXPECT_EQ(h.watchdog.alerts()[0].series, "engine.domain_events");
}

TEST(HealthWatchdog, AlertDumpsFlightRecorderAndFeedsOracle) {
  WatchdogHarness h;
  FlightRecorder flight;
  InvariantOracle oracle(OracleOptions{.policy = OraclePolicy::kCount});
  h.watchdog.AttachFlightRecorder(&flight);
  h.watchdog.AttachOracle(&oracle);
  Gauge* load = h.registry.GetGauge("app.load");
  h.watchdog.AddRule({.name = "load_ceiling",
                      .series = "app.load",
                      .kind = SloRuleKind::kCeiling,
                      .threshold = 10.0,
                      .windows = 1,
                      .min_samples = 1});
  h.Window(Millis(10), load, 42.0);
  EXPECT_EQ(flight.dump_count(), 1u);
  EXPECT_EQ(oracle.health_alerts(), 1u);
  // Alerts are advisories, not invariant violations: no policy trip.
  EXPECT_EQ(oracle.total_violations(), 0u);
  const std::string report = oracle.ReportJson();
  EXPECT_TRUE(JsonChecker(report).Valid()) << report;
  EXPECT_NE(report.find("\"health\""), std::string::npos);
  EXPECT_NE(report.find("\"load_ceiling\":1"), std::string::npos);
  const std::string alerts = h.watchdog.AlertsJson();
  EXPECT_TRUE(JsonChecker(alerts).Valid()) << alerts;
  EXPECT_NE(alerts.find("\"rule\":\"load_ceiling\""), std::string::npos);
}

TEST(HealthWatchdog, DefaultRulesCoverTheStockSet) {
  const std::vector<SloRule> rules = HealthWatchdog::DefaultRules();
  ASSERT_EQ(rules.size(), 5u);
  EXPECT_EQ(rules[0].name, "publish_ack_p99");
  EXPECT_EQ(rules[1].name, "queue_growth");
  EXPECT_EQ(rules[2].name, "recorder_saturation");
  EXPECT_EQ(rules[3].name, "worker_starvation");
  EXPECT_EQ(rules[4].name, "stripe_imbalance");
  EXPECT_EQ(rules[4].series, "storage.stripe_imbalance");
  EXPECT_EQ(rules[4].kind, SloRuleKind::kCeiling);
}

}  // namespace
}  // namespace publishing
