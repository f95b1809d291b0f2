#include "cluster/cost_model.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace pdc::cluster {
namespace {

TEST(Amdahl, PerfectlyParallelScalesLinearly) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(8, 0.0), 8.0);
}

TEST(Amdahl, FullySerialNeverSpeedsUp) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(64, 1.0), 1.0);
}

TEST(Amdahl, TenPercentSerialCapsAtTen) {
  EXPECT_NEAR(amdahl_speedup(1000000, 0.1), 10.0, 0.01);
}

TEST(Amdahl, ValidatesArguments) {
  EXPECT_THROW(amdahl_speedup(0, 0.5), InvalidArgument);
  EXPECT_THROW(amdahl_speedup(4, -0.1), InvalidArgument);
  EXPECT_THROW(amdahl_speedup(4, 1.1), InvalidArgument);
}

TEST(Gustafson, ScaledSpeedupGrowsWithP) {
  EXPECT_DOUBLE_EQ(gustafson_speedup(10, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(gustafson_speedup(10, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gustafson_speedup(10, 0.1), 10 - 0.1 * 9);
}

TEST(Presets, HaveExpectedCoreCounts) {
  EXPECT_EQ(raspberry_pi_3b().total_cores(), 4);
  EXPECT_EQ(raspberry_pi_4().total_cores(), 4);
  EXPECT_EQ(colab_vm().total_cores(), 1);
  EXPECT_EQ(st_olaf_vm().total_cores(), 64);
  EXPECT_EQ(chameleon_cluster(4).total_cores(), 96);
  EXPECT_EQ(all_presets().size(), 5u);
}

TEST(Network, TransferTimeCombinesLatencyAndBandwidth) {
  NetworkSpec net{100.0, 1.0};  // 100us, 1Gb/s
  // 1 MB at 1 Gb/s = 8e6 / 1e9 = 8 ms, plus 0.1 ms latency.
  EXPECT_NEAR(net.transfer_seconds(1e6), 0.0081, 1e-4);
}

TEST(CostModel, ColabVmPinsAtSpeedupOne) {
  const CostModel model(colab_vm());
  WorkloadSpec work{10.0, 0.0, 0, 0.0};
  const auto curve = model.scaling_curve(work, {1, 2, 4, 8});
  for (const auto& point : curve) {
    EXPECT_DOUBLE_EQ(point.speedup, 1.0)
        << "Colab's single core must not speed up at p=" << point.procs;
  }
}

TEST(CostModel, StOlafScalesWellTo64) {
  const CostModel model(st_olaf_vm());
  WorkloadSpec work{100.0, 0.005, 10, 1024.0};
  const auto curve = model.scaling_curve(work, {1, 2, 4, 8, 16, 32, 64});
  EXPECT_GT(curve.back().speedup, 40.0);  // "good parallel speedup"
  // Speedup is monotone nondecreasing up to the core count.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].speedup, curve[i - 1].speedup * 0.99);
  }
}

TEST(CostModel, CrossNodeCommunicationCostsMore) {
  const CostModel model(chameleon_cluster(2));  // 24 cores/node
  WorkloadSpec work{1.0, 0.0, 100, 8192.0};
  // 24 ranks fit on one node; 32 ranks span two.
  const double intra = model.predict_seconds(work, 16);
  const double inter = model.predict_seconds(work, 32);
  // More procs, but the inter-node latency penalty shows: time-per-superstep
  // communication is strictly larger across nodes.
  const CostModel big(chameleon_cluster(2));
  WorkloadSpec comm_only{1e-9, 0.0, 100, 8192.0};
  EXPECT_GT(big.predict_seconds(comm_only, 32),
            big.predict_seconds(comm_only, 16));
  (void)intra;
  (void)inter;
}

TEST(CostModel, OversubscriptionDoesNotHelp) {
  const CostModel model(raspberry_pi_4());  // 4 cores
  WorkloadSpec work{10.0, 0.0, 0, 0.0};
  EXPECT_DOUBLE_EQ(model.predict_seconds(work, 4),
                   model.predict_seconds(work, 16));
}

TEST(CostModel, SerialFractionLimitsSpeedup) {
  const CostModel model(st_olaf_vm());
  WorkloadSpec work{100.0, 0.25, 0, 0.0};
  const auto curve = model.scaling_curve(work, {64});
  EXPECT_LT(curve[0].speedup, 4.0);  // Amdahl cap 1/0.25 = 4
  EXPECT_GT(curve[0].speedup, 3.0);
}

TEST(CostModel, EfficiencyIsSpeedupOverP) {
  const CostModel model(st_olaf_vm());
  WorkloadSpec work{50.0, 0.01, 5, 4096.0};
  const auto curve = model.scaling_curve(work, {1, 8});
  EXPECT_DOUBLE_EQ(curve[1].efficiency, curve[1].speedup / 8.0);
  EXPECT_DOUBLE_EQ(curve[0].efficiency, 1.0);
}

TEST(CostModel, ValidatesArguments) {
  const CostModel model(raspberry_pi_4());
  WorkloadSpec work;
  EXPECT_THROW((void)model.predict_seconds(work, 0), InvalidArgument);
  ClusterSpec broken = raspberry_pi_4();
  broken.node.core_gflops = 0.0;
  EXPECT_THROW(CostModel{broken}, InvalidArgument);
}

TEST(PowerOfTwoProcs, GeneratesExpectedSequence) {
  EXPECT_EQ(power_of_two_procs(64),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(power_of_two_procs(5), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(power_of_two_procs(1), std::vector<int>{1});
  EXPECT_THROW(power_of_two_procs(0), InvalidArgument);
}

}  // namespace
}  // namespace pdc::cluster
