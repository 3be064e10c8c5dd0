#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/radix_sort.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gg {
namespace {

TEST(PrngTest, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(PrngTest, XoshiroIsDeterministicAndSeedSensitive) {
  Xoshiro256 a(1), b(1), c(2);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const u64 x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(PrngTest, BoundedStaysInBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(PrngTest, BoundedCoversAllResidues) {
  Xoshiro256 rng(3);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.bounded(8)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(PrngTest, Uniform01InHalfOpenInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PrngTest, RangeIsInclusive) {
  Xoshiro256 rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const i64 v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PrngTest, ExponentialMeanIsApproximatelyRight) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(PrngTest, ParetoRespectsScale) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(StatsTest, MedianOddEven) {
  const std::vector<double> odd = {5, 1, 3};
  EXPECT_DOUBLE_EQ(stats::median(odd), 3.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
  EXPECT_DOUBLE_EQ(stats::median(std::span<const double>{}), 0.0);
}

TEST(StatsTest, MedianU64) {
  const std::vector<u64> v = {10, 30, 20};
  EXPECT_DOUBLE_EQ(stats::median(v), 20.0);
}

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stats::stddev(v), 2.0);
}

TEST(StatsTest, Percentile) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile(v, 25), 2.0);
}

TEST(StatsTest, MinMaxGeomean) {
  const std::vector<u64> v = {5, 2, 9};
  EXPECT_EQ(stats::min_value(v), 2u);
  EXPECT_EQ(stats::max_value(v), 9u);
  const std::vector<double> g = {1.0, 4.0};
  EXPECT_NEAR(stats::geomean(g), 2.0, 1e-12);
  const std::vector<double> bad = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(stats::geomean(bad), 0.0);
}

TEST(StringTableTest, InternIsIdempotentAndDense) {
  StringTable t;
  EXPECT_EQ(t.get(0), "");
  const StrId a = t.intern("alpha");
  const StrId b = t.intern("beta");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(t.intern("alpha"), a);
  EXPECT_EQ(t.get(a), "alpha");
  EXPECT_EQ(t.find("beta"), b);
  EXPECT_EQ(t.find("missing"), 0u);
  EXPECT_EQ(t.get(999), "");
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(strings::xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(strings::xml_escape("plain"), "plain");
}

TEST(StringsTest, TrimDouble) {
  EXPECT_EQ(strings::trim_double(1.5), "1.5");
  EXPECT_EQ(strings::trim_double(2.0), "2");
  EXPECT_EQ(strings::trim_double(0.125, 3), "0.125");
  EXPECT_EQ(strings::trim_double(0.1239, 3), "0.124");
}

TEST(StringsTest, HumanTime) {
  EXPECT_EQ(strings::human_time(12), "12ns");
  EXPECT_EQ(strings::human_time(3400), "3.4us");
  EXPECT_EQ(strings::human_time(1'200'000), "1.2ms");
  EXPECT_EQ(strings::human_time(5'600'000'000ull), "5.6s");
}

TEST(StringsTest, JoinAndStartsWith) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_TRUE(strings::starts_with("sparselu.c:246", "sparselu"));
  EXPECT_FALSE(strings::starts_with("x", "xyz"));
}

TEST(TableTest, TextRendering) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("| name "), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvQuoting) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
}

TEST(TableTest, MixedRowFormatsDoubles) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row_mixed({1.0, 2.25});
  EXPECT_NE(t.to_text().find("2.25"), std::string::npos);
}

TEST(RadixSortTest, KeyRunsTileTheSortedKeysAtEveryThreadCount) {
  // A few keys in long runs, so that block edges fall inside runs.
  Xoshiro256 rng(11);
  std::vector<u64> items(20000);
  for (u64& v : items) v = rng.bounded(21);
  const size_t n = items.size();
  auto key = [](u64 v) { return std::pair{v % 7, u32(v / 7)}; };
  std::vector<std::pair<size_t, size_t>> serial_runs;
  for (const int threads : {1, 2, 3, 8}) {
    const auto keys = sorted_keys(items, threads, key);
    for (size_t k = 1; k < n; ++k) {
      const auto a = std::tuple(keys[k - 1].hi, keys[k - 1].lo,
                                keys[k - 1].index);
      ASSERT_LT(a, std::tuple(keys[k].hi, keys[k].lo, keys[k].index));
    }
    for (size_t k = 0; k < n; ++k)
      ASSERT_EQ(key(items[keys[k].index]), std::pair(keys[k].hi, keys[k].lo));
    std::vector<std::vector<std::pair<size_t, size_t>>> blocks(
        par_block_count(n, threads));
    par_for_key_runs(keys.get(), n, threads,
                     [&](size_t b, size_t begin, size_t end) {
                       blocks[b].emplace_back(begin, end);
                     });
    std::vector<std::pair<size_t, size_t>> runs;
    for (const auto& block : blocks)
      runs.insert(runs.end(), block.begin(), block.end());
    ASSERT_EQ(runs.size(), 21u) << threads;
    size_t next = 0;
    for (const auto& [begin, end] : runs) {
      ASSERT_EQ(begin, next);
      ASSERT_LT(begin, end);
      for (size_t k = begin; k < end; ++k) {
        EXPECT_EQ(keys[k].hi, keys[begin].hi);
        EXPECT_EQ(keys[k].lo, keys[begin].lo);
      }
      next = end;
    }
    EXPECT_EQ(next, n);
    if (threads == 1) serial_runs = runs;
    EXPECT_EQ(runs, serial_runs) << threads << " threads";
  }
}

}  // namespace
}  // namespace gg
