// Tests for the util foundation layer: bytes, Status/Result, Rng, hashing,
// ThreadPool, stats, TextTable, SimClock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace cshield {
namespace {

// --- bytes -----------------------------------------------------------------

TEST(BytesTest, RoundTripString) {
  const Bytes b = to_bytes("hello cloud");
  EXPECT_EQ(to_string(b), "hello cloud");
  EXPECT_EQ(b.size(), 11u);
}

TEST(BytesTest, SliceWithinBounds) {
  const Bytes b = to_bytes("abcdefgh");
  EXPECT_EQ(to_string(slice(b, 2, 3)), "cde");
}

TEST(BytesTest, SliceClampsAtEnd) {
  const Bytes b = to_bytes("abcdefgh");
  EXPECT_EQ(to_string(slice(b, 6, 100)), "gh");
}

TEST(BytesTest, SlicePastEndIsEmpty) {
  const Bytes b = to_bytes("abc");
  EXPECT_TRUE(slice(b, 5, 2).empty());
}

TEST(BytesTest, AppendConcatenates) {
  Bytes a = to_bytes("foo");
  append(a, to_bytes("bar"));
  EXPECT_EQ(to_string(a), "foobar");
}

TEST(BytesTest, EqualComparesContent) {
  EXPECT_TRUE(equal(to_bytes("xy"), to_bytes("xy")));
  EXPECT_FALSE(equal(to_bytes("xy"), to_bytes("xz")));
  EXPECT_FALSE(equal(to_bytes("xy"), to_bytes("xyz")));
}

TEST(BytesTest, HexRoundTrip) {
  const Bytes b = {0x00, 0x0F, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(b), "000fabff");
  EXPECT_TRUE(equal(from_hex("000fabff"), b));
  EXPECT_TRUE(equal(from_hex("000FABFF"), b));
}

TEST(BytesTest, FromHexRejectsBadInput) {
  EXPECT_TRUE(from_hex("abc").empty());   // odd length
  EXPECT_TRUE(from_hex("zz").empty());    // non-hex
}

TEST(BytesTest, XorIntoIsSelfInverse) {
  Bytes a = to_bytes("secret01");
  const Bytes key = to_bytes("keykeyke");
  Bytes x = a;
  xor_into(x, key);
  EXPECT_FALSE(equal(x, a));
  xor_into(x, key);
  EXPECT_TRUE(equal(x, a));
}

// --- status / result ---------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::NotFound("chunk 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: chunk 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(error_code_name(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Unavailable("down");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOnErrorThrows) {
  Result<int> r = Status::NotFound("x");
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(ResultTest, OkStatusWithoutValueThrows) {
  EXPECT_THROW((Result<int>(Status::Ok())), std::logic_error);
}

TEST(RequireTest, ThrowsOnViolation) {
  EXPECT_THROW(CS_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(CS_REQUIRE(true, "fine"));
}

// --- rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.02);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(42);
  Rng b(42);
  Rng fa = a.fork(1);
  Rng fb = b.fork(1);
  EXPECT_EQ(fa.next(), fb.next());
  Rng fc = b.fork(2);
  EXPECT_NE(fa.next(), fc.next());
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

// --- hash ----------------------------------------------------------------------

TEST(HashTest, Fnv1aKnownValue) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view{}), 0xCBF29CE484222325ULL);
}

TEST(HashTest, Fnv1aDistinguishesStrings) {
  EXPECT_NE(fnv1a64("file1"), fnv1a64("file2"));
}

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    total += __builtin_popcountll(mix64(i) ^ mix64(i ^ 1ULL));
  }
  EXPECT_GT(total / 64, 20);
  EXPECT_LT(total / 64, 44);
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

TEST(HashTest, Crc32KnownVector) {
  // The standard CRC-32 (reflected, poly 0xEDB88320) check value.
  const std::string_view check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// The definition of CRC-32 one bit at a time, kept here so the table
// implementation is checked against something it does not share code with.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(HashTest, Crc32MatchesBitwiseReference) {
  Rng rng(0xC3C3);
  Bytes data(308);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  // Every length 0-300 at every start offset 0-7 crosses each alignment of
  // the eight-byte steps and every tail length.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc32(data.data() + offset, len),
                bitwise_crc32(data.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  Bytes big(std::size_t{1} << 20);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.below(256));
  EXPECT_EQ(crc32(big), bitwise_crc32(big.data(), big.size()));
}

TEST(HashTest, Crc32DetectsSingleBitFlips) {
  Bytes data = to_bytes("write-ahead journal frame payload");
  const std::uint32_t clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      data[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(data), clean) << "offset " << i << " bit " << bit;
      data[i] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// --- thread pool -----------------------------------------------------------------

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ForEachInlineRunsOnCallerInOrder) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  pool.for_each(64, false, [&](std::size_t i) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // One index is inline whatever `concurrent` says.
  std::thread::id ran_on;
  pool.for_each(1, true, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, ForEachConcurrentRunsEveryIndexOnce) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(1000);
  std::atomic<int> on_caller{0};
  pool.for_each(hits.size(), true, [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(on_caller.load(), 0);  // every index ran as a pool task
}

TEST(ThreadPoolTest, ForEachRethrowsOnlyAfterEveryTaskJoined) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 16;
  std::atomic<std::size_t> finished{0};
  // Index 0 throws at once; the others are still running (or queued) when
  // it does, so an early rethrow would leave them touching `finished` after
  // for_each returned.
  EXPECT_THROW(pool.for_each(kTasks, true,
                             [&](std::size_t i) {
                               if (i == 0) throw std::runtime_error("boom");
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(5));
                               finished.fetch_add(1);
                             }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), kTasks - 1);
}

TEST(ThreadPoolTest, ForEachOfZeroDoesNothing) {
  ThreadPool pool(2);
  bool ran = false;
  pool.for_each(0, true, [&](std::size_t) { ran = true; });
  pool.for_each(0, false, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SizeReportsWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

// --- stats ----------------------------------------------------------------------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(StatsTest, PercentileInplaceMatchesCopyingVersion) {
  Rng rng(0xBEEF);
  std::vector<double> v(501);
  for (double& x : v) x = static_cast<double>(rng.below(100000)) / 7.0;
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    std::vector<double> scratch = v;
    EXPECT_DOUBLE_EQ(percentile_inplace(scratch, q), percentile(v, q)) << q;
  }
}

TEST(StatsTest, PercentileInplaceRepeatedCallsStayCorrect) {
  // nth_element reorders the span; order statistics are permutation-
  // invariant, so asking again (even for other quantiles) must agree.
  std::vector<double> v{9, 1, 8, 2, 7, 3, 6, 4, 5};
  const double p50_first = percentile_inplace(v, 0.5);
  const double p25 = percentile_inplace(v, 0.25);
  const double p50_again = percentile_inplace(v, 0.5);
  EXPECT_DOUBLE_EQ(p50_first, 5.0);
  EXPECT_DOUBLE_EQ(p50_again, 5.0);
  EXPECT_DOUBLE_EQ(p25, 3.0);
}

TEST(StatsTest, PercentileLeavesCallerVectorUntouched) {
  const std::vector<double> v{4, 3, 2, 1};
  const std::vector<double> before = v;
  (void)percentile(v, 0.75);
  EXPECT_EQ(v, before);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(StatsTest, PearsonDegenerateIsZero) {
  std::vector<double> x{1, 1, 1};
  std::vector<double> y{2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

// --- table ---------------------------------------------------------------------

TEST(TableTest, PrintsAlignedColumns) {
  TextTable t({"name", "count"});
  t.add("alpha", 12);
  t.add("b", 3);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("count"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvQuotesSpecialCells) {
  TextTable t({"a", "b"});
  t.add("x,y", "plain");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(TableTest, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TableTest, FmtFixesPrecision) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
}

// --- sim clock -------------------------------------------------------------------

TEST(SimClockTest, AdvanceAccumulates) {
  SimClock clock;
  clock.advance(SimDuration(100));
  clock.advance(SimDuration(50));
  EXPECT_EQ(clock.now().count(), 150);
}

TEST(SimClockTest, AdvanceToNeverMovesBackwards) {
  SimClock clock;
  clock.advance(SimDuration(200));
  clock.advance_to(SimDuration(100));
  EXPECT_EQ(clock.now().count(), 200);
  clock.advance_to(SimDuration(500));
  EXPECT_EQ(clock.now().count(), 500);
}

TEST(SimClockTest, ResetZeroes) {
  SimClock clock;
  clock.advance(SimDuration(42));
  clock.reset();
  EXPECT_EQ(clock.now().count(), 0);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink += i;
  // Keep the loop alive without deprecated volatile compound assignment.
  asm volatile("" : : "g"(&sink) : "memory");
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  EXPECT_GE(sw.elapsed_ns(), 0);
}

}  // namespace
}  // namespace cshield
