// Tests for §6.6.1 — not publishing traffic for non-recoverable processes.

#include <gtest/gtest.h>

#include "src/core/publishing_system.h"
#include "src/queueing/simulation.h"
#include "tests/test_programs.h"

namespace publishing {
namespace {

PublishingSystemConfig BaseConfig() {
  PublishingSystemConfig config;
  config.cluster.node_count = 2;
  config.cluster.start_system_processes = false;
  config.cluster.seed = 31;
  return config;
}

TEST(SelectivePublishing, NonRecoverableTrafficIsNotStored) {
  PublishingSystem system(BaseConfig());
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(20); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo", {}, /*recoverable=*/false);
  auto pinger =
      system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}}, /*recoverable=*/false);
  system.RunFor(Seconds(60));

  const auto* p =
      dynamic_cast<const PingerProgram*>(system.cluster().kernel(NodeId{1})->ProgramFor(*pinger));
  ASSERT_EQ(p->received(), 20u) << "traffic itself flows normally";
  EXPECT_TRUE(system.storage().Replay(*echo).empty());
  EXPECT_TRUE(system.storage().Replay(*pinger).empty());
  EXPECT_EQ(system.storage().messages_stored(), 0u);
}

TEST(SelectivePublishing, NonRecoverableProcessIsNotRecovered) {
  PublishingSystem system(BaseConfig());
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(50); });
  auto echo = system.cluster().Spawn(NodeId{2}, "echo", {}, /*recoverable=*/false);
  system.cluster().Spawn(NodeId{1}, "pinger", {Link{*echo, 1, 0, 0}});
  system.RunFor(Millis(80));
  ASSERT_TRUE(system.CrashProcess(*echo).ok());
  system.RunFor(Seconds(30));
  // "If a crash were to occur during their execution, the user may not want
  // to restart them" — the crash is final.
  EXPECT_EQ(system.recovery().stats().process_recoveries_started, 0u);
  EXPECT_EQ(system.cluster().kernel(NodeId{2})->QueryProcessState(*echo),
            ProcessStateAnswer::kCrashed);
}

TEST(SelectivePublishing, RecoverableNeighborsAreUnaffected) {
  PublishingSystem system(BaseConfig());
  system.cluster().registry().Register("echo", [] { return std::make_unique<EchoProgram>(); });
  system.cluster().registry().Register("pinger",
                                       [] { return std::make_unique<PingerProgram>(20); });
  auto recoverable_echo = system.cluster().Spawn(NodeId{2}, "echo");
  auto throwaway_echo = system.cluster().Spawn(NodeId{2}, "echo", {}, /*recoverable=*/false);
  auto pinger =
      system.cluster().Spawn(NodeId{1}, "pinger", {Link{*recoverable_echo, 1, 0, 0}});
  (void)throwaway_echo;
  system.RunFor(Millis(80));
  ASSERT_TRUE(system.CrashProcess(*recoverable_echo).ok());
  ASSERT_TRUE(system.RunUntilRecovered(*recoverable_echo, Seconds(120)));
  system.RunFor(Seconds(120));
  const auto* p =
      dynamic_cast<const PingerProgram*>(system.cluster().kernel(NodeId{1})->ProgramFor(*pinger));
  EXPECT_EQ(p->received(), 20u);
}

TEST(SelectivePublishing, AblationIncreasesRecorderCapacity) {
  // §6.6.1: not publishing a share of the traffic buys extra capacity.  At
  // the mean operating point the binding resource is the network — which
  // unpublished messages still cross — so only the induced checkpoint
  // traffic shrinks and it takes a larger share to free up a whole node
  // (the paper's one-more-VAX example was at the disk-bound point).
  QueueingConfig config;
  config.op = StandardOperatingPoints()[0];
  CapacityEstimate baseline = EstimateCapacity(config);
  config.non_recoverable_fraction = 0.5;
  CapacityEstimate ablated = EstimateCapacity(config);
  EXPECT_GT(ablated.max_nodes, baseline.max_nodes);
  // At the disk-bound point a modest share is enough when the disk binds.
  QueueingConfig disk_bound;
  disk_bound.op = StandardOperatingPoints()[4];
  disk_bound.buffered_writes = false;
  disk_bound.non_recoverable_fraction = 0.0;
  AnalyticUtilizations with_all = ComputeAnalyticUtilizations(disk_bound);
  disk_bound.non_recoverable_fraction = 0.15;
  AnalyticUtilizations with_less = ComputeAnalyticUtilizations(disk_bound);
  EXPECT_LT(with_less.disk, with_all.disk * 0.90);
}

}  // namespace
}  // namespace publishing
