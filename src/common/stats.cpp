#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace gg::stats {

double median_in_place(std::span<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double median(std::span<const double> values) {
  std::vector<double> v(values.begin(), values.end());
  return median_in_place(v);
}

double median(std::span<const u64> values) {
  std::vector<double> v = to_doubles(values);
  return median_in_place(v);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double x : values) sum += x;
  return sum / static_cast<double>(values.size());
}

double mean(std::span<const u64> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (u64 x : values) sum += static_cast<double>(x);
  return sum / static_cast<double>(values.size());
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double x : values) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

u64 min_value(std::span<const u64> values) {
  if (values.empty()) return 0;
  return *std::min_element(values.begin(), values.end());
}

u64 max_value(std::span<const u64> values) {
  if (values.empty()) return 0;
  return *std::max_element(values.begin(), values.end());
}

double geomean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double x : values) {
    if (x <= 0.0) return 0.0;
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(values.size()));
}

std::vector<double> to_doubles(std::span<const u64> values) {
  std::vector<double> v;
  v.reserve(values.size());
  for (u64 x : values) v.push_back(static_cast<double>(x));
  return v;
}

}  // namespace gg::stats
