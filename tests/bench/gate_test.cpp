// The shared bench baseline gate (bench/harness.hpp), driven directly:
// exact floor and ceiling bounds, missing files and keys, backend
// routing of --baseline files, and rejection of unknown flags.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using bench::Better;

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

TEST(BenchGate, FloorHoldsAtTheExactBound) {
  EXPECT_TRUE(bench::gate("charlotte", "peak_throughput", 30.60, 34.0,
                          Better::kHigher, 0.10));
  EXPECT_FALSE(bench::gate("charlotte", "peak_throughput", 30.59, 34.0,
                           Better::kHigher, 0.10));
  EXPECT_TRUE(bench::gate("charlotte", "peak_throughput", 40.0, 34.0,
                          Better::kHigher, 0.10));
}

TEST(BenchGate, CeilingHoldsAtTheExactBound) {
  EXPECT_TRUE(bench::gate("charlotte", "commit_p50_ms", 37.40, 34.0,
                          Better::kLower, 0.10));
  EXPECT_FALSE(bench::gate("charlotte", "commit_p50_ms", 37.41, 34.0,
                           Better::kLower, 0.10));
  EXPECT_TRUE(bench::gate("charlotte", "commit_p50_ms", 1.0, 34.0,
                          Better::kLower, 0.10));
}

TEST(BenchGate, ZeroToleranceIsAPlainFloor) {
  EXPECT_TRUE(bench::gate("storm", "events_per_sec", 1e7, 1e7,
                          Better::kHigher, 0.0));
  EXPECT_FALSE(bench::gate("storm", "events_per_sec", 1e7 - 1, 1e7,
                           Better::kHigher, 0.0));
}

TEST(BenchGate, VerdictNamesLabelMetricAndBound) {
  ::testing::internal::CaptureStdout();
  bench::gate("soda", "peak_throughput", 100.0, 134.0, Better::kHigher, 0.10);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("baseline gate REGRESSION: soda peak_throughput: "
                     "measured 100.00 vs baseline 134.00, floor 120.60"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"kind\":\"baseline_check\""), std::string::npos);
  EXPECT_NE(out.find("\"ok\":0"), std::string::npos);
}

TEST(BenchGate, MissingKeyFails) {
  const std::string text = R"({"backend": "charlotte", "peak_rate": 38.05})";
  const double baseline = bench::json_number_field(text, "peak_throughput");
  EXPECT_TRUE(std::isnan(baseline));
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(bench::gate("charlotte", "peak_throughput", 34.0, baseline,
                           Better::kHigher, 0.10));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("no baseline"), std::string::npos) << out;
  EXPECT_NE(out.find("\"baseline\":null"), std::string::npos) << out;
}

TEST(BenchGate, MissingFileFails) {
  const std::string missing = ::testing::TempDir() + "no_such_baseline.json";
  EXPECT_FALSE(bench::read_file(missing));
  EXPECT_FALSE(bench::route_baselines({missing}, {"charlotte"}));
}

TEST(BenchGate, FieldReadsMatchTheCheckedInShape) {
  const std::string text = R"({
  "comment": "CI fails below peak_throughput.",
  "backend": "soda",
  "peak_throughput": 134.0,
  "fanin-soda_floor": 2800000
})";
  EXPECT_EQ(bench::json_string_field(text, "backend"), "soda");
  EXPECT_DOUBLE_EQ(bench::json_number_field(text, "peak_throughput"), 134.0);
  EXPECT_DOUBLE_EQ(bench::json_number_field(text, "fanin-soda_floor"), 2.8e6);
  EXPECT_TRUE(std::isnan(bench::json_number_field(text, "backend")));
  EXPECT_EQ(bench::json_string_field(text, "peak_throughput"), "");
  EXPECT_EQ(bench::json_string_field(text, "mode"), "");
}

TEST(BenchGate, RoutesEachFileByItsBackendField) {
  const std::string soda =
      write_file("soda_gate.json", R"({"backend": "soda", "x": 2})");
  const std::string charlotte =
      write_file("charlotte_gate.json", R"({"backend": "charlotte", "x": 1})");
  const auto texts = bench::route_baselines(
      {soda, charlotte}, {"charlotte", "soda", "chrysalis"});
  ASSERT_TRUE(texts);
  ASSERT_EQ(texts->size(), 3u);
  EXPECT_EQ(bench::json_number_field((*texts)[0], "x"), 1.0);
  EXPECT_EQ(bench::json_number_field((*texts)[1], "x"), 2.0);
  EXPECT_EQ((*texts)[2], "");
}

TEST(BenchGate, UnknownBackendFails) {
  const std::string soda =
      write_file("soda_gate.json", R"({"backend": "soda", "x": 2})");
  const std::string unnamed = write_file("unnamed_gate.json", R"({"x": 2})");
  EXPECT_FALSE(bench::route_baselines({soda}, {"charlotte"}));
  EXPECT_FALSE(bench::route_baselines({unnamed}, {"charlotte"}));
}

TEST(BenchGate, DuplicateBackendFails) {
  const std::string a =
      write_file("charlotte_a.json", R"({"backend": "charlotte", "x": 1})");
  const std::string b =
      write_file("charlotte_b.json", R"({"backend": "charlotte", "x": 2})");
  EXPECT_FALSE(bench::route_baselines({a, b}, {"charlotte", "soda"}));
}

TEST(BenchInit, ParsesSmokeAndRepeatableBaselines) {
  std::vector<std::string> args = {"bench", "--smoke", "--baseline=a.json",
                                   "--baseline=b.json"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  bench::init(static_cast<int>(argv.size()), argv.data(), "gate_test");
  EXPECT_TRUE(bench::smoke());
  EXPECT_EQ(bench::baseline_paths(),
            (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(BenchInitDeathTest, UnknownFlagExitsTwo) {
  std::string prog = "bench";
  std::string typo = "--basline=bench/baselines/replica.json";
  char* argv[] = {prog.data(), typo.data()};
  EXPECT_EXIT(bench::init(2, argv, "gate_test"),
              ::testing::ExitedWithCode(2),
              "unknown flag --basline=bench/baselines/replica.json");
}

// bench_capacity's removed --formation flag: no bench takes flags of
// its own any more, so a script still passing it fails loudly.
TEST(BenchInitDeathTest, FlagTheBenchDeclinesExitsTwo) {
  std::string prog = "bench";
  std::string flag = "--formation=on";
  char* argv[] = {prog.data(), flag.data()};
  EXPECT_EXIT(bench::init(2, argv, "gate_test"), ::testing::ExitedWithCode(2),
              "unknown flag --formation=on");
}

}  // namespace
