// CSV-export round-trip and failure-path tests.
//
// The exporters' contract after the silent-failure fixes: true means the
// complete file reached disk (header + exactly one row per non-idle
// (step, entity) pair); false covers open failure, mid-run write failure,
// and data lost in the final flush/close (injected via /dev/full).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/topology/fleet.h"
#include "src/trace/csv_export.h"
#include "src/trace/records.h"
#include "src/workload/generator.h"

namespace ebs {
namespace {

class CsvExportFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig fleet_config;
    fleet_config.seed = 11;
    fleet_config.user_count = 8;
    fleet_ = new Fleet(BuildFleet(fleet_config));
    WorkloadConfig config;
    config.seed = 12;
    config.window_steps = 40;
    result_ = new WorkloadResult(WorkloadGenerator(*fleet_, config).Generate());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete fleet_;
    result_ = nullptr;
    fleet_ = nullptr;
  }

  static std::string TempPath(const char* name) {
    return std::string(::testing::TempDir()) + "/" + name;
  }

  static std::vector<std::string> ReadLines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
    return lines;
  }

  static size_t CountCells(const std::string& line) {
    return static_cast<size_t>(std::count(line.begin(), line.end(), ',')) + 1;
  }

  static bool DevFullAvailable() {
    std::FILE* probe = std::fopen("/dev/full", "w");
    if (probe == nullptr) {
      return false;
    }
    std::fclose(probe);
    return true;
  }

  static Fleet* fleet_;
  static WorkloadResult* result_;
};

Fleet* CsvExportFixture::fleet_ = nullptr;
WorkloadResult* CsvExportFixture::result_ = nullptr;

TEST_F(CsvExportFixture, TracesRoundTripHeaderShapeAndRowCount) {
  const std::string path = TempPath("rt_traces.csv");
  ASSERT_TRUE(WriteTracesCsv(result_->traces, path));
  const std::vector<std::string> lines = ReadLines(path);
  std::remove(path.c_str());

  ASSERT_EQ(lines.size(), result_->traces.records.size() + 1);
  EXPECT_EQ(lines[0],
            "timestamp,op,size,offset,user,vm,vd,qp,wt,cn,segment,bs,sn,"
            "lat_cn_us,lat_fe_us,lat_bs_us,lat_be_us,lat_cs_us");
  const size_t columns = CountCells(lines[0]);
  EXPECT_EQ(columns, 18u);
  for (size_t i = 1; i < lines.size(); ++i) {
    ASSERT_EQ(CountCells(lines[i]), columns) << "row " << i;
  }
}

TEST_F(CsvExportFixture, ComputeMetricsRowsMatchNonIdleSteps) {
  const std::string path = TempPath("rt_compute.csv");
  ASSERT_TRUE(WriteComputeMetricsCsv(*fleet_, result_->metrics, path));
  const std::vector<std::string> lines = ReadLines(path);
  std::remove(path.c_str());

  size_t non_idle = 0;
  for (const Qp& qp : fleet_->qps) {
    const RwSeries& series = result_->metrics.qp_series[qp.id.value()];
    for (size_t t = 0; t < result_->metrics.window_steps; ++t) {
      if (series.read_bytes[t] > 0.0 || series.write_bytes[t] > 0.0 ||
          series.read_ops[t] > 0.0 || series.write_ops[t] > 0.0) {
        ++non_idle;
      }
    }
  }
  EXPECT_GT(non_idle, 0u);
  ASSERT_EQ(lines.size(), non_idle + 1);
  EXPECT_EQ(lines[0], "step,user,vm,vd,wt,qp,read_bytes,write_bytes,read_ops,write_ops");
}

TEST_F(CsvExportFixture, OpsWithoutBytesAreNotDropped) {
  // Regression for the sparse-dump skip: a step with nonzero ops but zero
  // byte counters must still be exported.
  FleetConfig tiny;
  tiny.seed = 13;
  tiny.user_count = 1;
  const Fleet fleet = BuildFleet(tiny);
  ASSERT_GT(fleet.qps.size(), 0u);

  MetricDataset metrics;
  metrics.window_steps = 3;
  metrics.step_seconds = 1.0;
  metrics.qp_series.assign(fleet.qps.size(), RwSeries(3, 1.0));
  metrics.qp_series[0].read_ops[1] = 2.0;  // ops, no bytes

  const std::string path = TempPath("rt_opsonly.csv");
  ASSERT_TRUE(WriteComputeMetricsCsv(fleet, metrics, path));
  const std::vector<std::string> lines = ReadLines(path);
  std::remove(path.c_str());

  ASSERT_EQ(lines.size(), 2u) << "ops-only step was dropped from the sparse dump";
  EXPECT_EQ(lines[1].substr(0, 2), "1,");
  EXPECT_NE(lines[1].find(",2.0,0.0"), std::string::npos);
}

TEST_F(CsvExportFixture, StorageMetricsRowsMatchNonIdleSteps) {
  const std::string path = TempPath("rt_storage.csv");
  ASSERT_TRUE(WriteStorageMetricsCsv(*fleet_, result_->metrics, path));
  const std::vector<std::string> lines = ReadLines(path);
  std::remove(path.c_str());

  size_t non_idle = 0;
  result_->metrics.segment_series.ForEachSorted([&](uint32_t, const RwSeries& series) {
    for (size_t t = 0; t < result_->metrics.window_steps; ++t) {
      if (series.read_bytes[t] > 0.0 || series.write_bytes[t] > 0.0 ||
          series.read_ops[t] > 0.0 || series.write_ops[t] > 0.0) {
        ++non_idle;
      }
    }
  });
  EXPECT_GT(non_idle, 0u);
  ASSERT_EQ(lines.size(), non_idle + 1);
}

TEST_F(CsvExportFixture, UnopenablePathReturnsFalse) {
  EXPECT_FALSE(WriteTracesCsv(result_->traces, "/nonexistent-dir/t.csv"));
  EXPECT_FALSE(WriteComputeMetricsCsv(*fleet_, result_->metrics, "/nonexistent-dir/c.csv"));
  EXPECT_FALSE(WriteStorageMetricsCsv(*fleet_, result_->metrics, "/nonexistent-dir/s.csv"));
}

TEST_F(CsvExportFixture, WriteFailureIsNotSilent) {
  // /dev/full opens fine and absorbs buffered writes, then loses everything
  // at flush time — exactly the disk-full scenario the old exporters
  // reported as success.
  if (!DevFullAvailable()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_FALSE(WriteTracesCsv(result_->traces, "/dev/full"));
  EXPECT_FALSE(WriteComputeMetricsCsv(*fleet_, result_->metrics, "/dev/full"));
  EXPECT_FALSE(WriteStorageMetricsCsv(*fleet_, result_->metrics, "/dev/full"));
}

}  // namespace
}  // namespace ebs
