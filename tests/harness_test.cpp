// The statistics and exit-code rule every gated bench relies on
// (bench/harness.hpp).
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"

namespace {

using namespace cshield;
using bench::Paired;
using bench::Report;

TEST(HarnessStatsTest, MedianOfPairedRatiosAndMinOverPairs) {
  const Paired p{{10, 20, 30, 40, 50}, {5, 5, 10, 10, 50}};
  // Per-pair ratios 2, 4, 3, 4, 1.
  EXPECT_EQ(p.ratios(), (std::vector<double>{2, 4, 3, 4, 1}));
  EXPECT_DOUBLE_EQ(p.ratio(), 3.0);
  EXPECT_DOUBLE_EQ(p.min_ratio(), 1.0);
  // Where the two disagree: the ratio of medians is 3 / 1 = 3, but the
  // per-pair ratios are 1, 3 and 0.5.
  const Paired drift{{1, 3, 100}, {1, 1, 200}};
  EXPECT_DOUBLE_EQ(drift.ratio(), 1.0);
  EXPECT_DOUBLE_EQ(drift.min_ratio(), 0.5);
}

TEST(HarnessStatsTest, PairsWithAZeroBaselineAreSkipped) {
  const Paired p{{4, 9, 6}, {2, 0, 3}};
  EXPECT_EQ(p.ratios(), (std::vector<double>{2, 2}));
  EXPECT_DOUBLE_EQ(p.ratio(), 2.0);
  EXPECT_DOUBLE_EQ(Paired{}.ratio(), 0.0);
  EXPECT_DOUBLE_EQ(Paired{}.min_ratio(), 0.0);
}

TEST(HarnessStatsTest, QuartileSpread) {
  const bench::Quartiles odd = bench::quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(odd.q1, 2.0);
  EXPECT_DOUBLE_EQ(odd.median, 3.0);
  EXPECT_DOUBLE_EQ(odd.q3, 4.0);
  EXPECT_DOUBLE_EQ(odd.spread(), 2.0);
  // Even counts interpolate between order statistics.
  const bench::Quartiles even = bench::quartiles({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(even.q1, 1.75);
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.q3, 3.25);
  EXPECT_DOUBLE_EQ(bench::median({7, 1, 3}), 3.0);
}

TEST(HarnessStatsTest, PairedAlternatesWhichArmRunsFirst) {
  std::string order;
  const Paired p = Paired::run(
      4,
      [&](int rep) {
        order += 'A';
        return 10.0 + rep;
      },
      [&](int rep) {
        order += 'B';
        return 1.0 + rep;
      });
  EXPECT_EQ(order, "ABBAABBA");
  // Samples stay aligned by rep whichever arm ran first.
  EXPECT_EQ(p.a, (std::vector<double>{10, 11, 12, 13}));
  EXPECT_EQ(p.b, (std::vector<double>{1, 2, 3, 4}));
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(HarnessReportTest, ExitCodeComesFromTheGates) {
  bench::ScratchDir dir;
  const std::string path = (dir.path / "BENCH_test.json").string();

  Report passing("test");
  EXPECT_TRUE(passing.at_least("speedup", "median of paired ratios", 3.5, 3));
  EXPECT_TRUE(passing.at_most("overhead_pct", "min over pairs", 4, 5));
  EXPECT_EQ(passing.finish(path), 0);

  Report failing("test");
  EXPECT_TRUE(failing.at_least("speedup", "median of paired ratios", 3.5, 3));
  EXPECT_FALSE(failing.at_most("overhead_pct", "min over pairs", 6, 5));
  EXPECT_EQ(failing.finish(path), 1);

  Report custom("test");
  EXPECT_FALSE(custom.gate("frontier", "max", 2.5, 2, "coverage too", false));
  EXPECT_NE(custom.finish(path), 0);

  // No gate recorded: nothing failed.
  EXPECT_EQ(Report("test").finish(path), 0);
}

TEST(HarnessReportTest, EnvelopeCarriesTheSharedKeysFirst) {
  bench::ScratchDir dir;
  const std::filesystem::path path = dir.path / "BENCH_test.json";
  Report report("test");
  report.config.set("reps", 5);
  report.rows.set("rows", bench::Json::array().push(
                              bench::Json::object().set("name", "a\"b")));
  report.at_least("g", "count", 1, 1);
  ASSERT_EQ(report.finish(path.string()), 0);
  const std::string text = slurp(path);
  std::size_t last = 0;
  for (const char* key : {"\"schema\": \"cshield.bench.v1\"",
                          "\"bench\": \"test\"", "\"git_rev\": ",
                          "\"hardware\": ", "\"cores\": ", "\"gf256_arm\": ",
                          "\"sha256_arm\": ", "\"aes_arm\": ",
                          "\"config\": {\"reps\": 5}",
                          "\"gates\": ", "\"statistic\": \"count\"",
                          "\"form\": \"value >= bound\"", "\"pass\": true",
                          "\"rows\": "}) {
    const std::size_t at = text.find(key);
    ASSERT_NE(at, std::string::npos) << key << " missing from\n" << text;
    EXPECT_GE(at, last) << key << " out of order";
    last = at;
  }
  EXPECT_NE(text.find(R"({"name": "a\"b"})"), std::string::npos) << text;
}

}  // namespace
