// Small descriptive-statistics helpers used by metric derivations and bench
// reporting (median grain length, percentiles, load-balance ratios, ...).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace gg::stats {

/// Median of the values (copies and partially sorts). Returns 0 for empty
/// input. Even-length inputs return the mean of the two middle elements.
double median(std::span<const double> values);
double median(std::span<const u64> values);
/// The same median, reordering `values` instead of copying them.
double median_in_place(std::span<double> values);

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> values);
double mean(std::span<const u64> values);

/// p in [0,100]; linear interpolation between closest ranks. 0 for empty.
double percentile(std::span<const double> values, double p);

/// Population standard deviation; 0 for fewer than two samples.
double stddev(std::span<const double> values);

/// Minimum / maximum; 0 for empty input.
u64 min_value(std::span<const u64> values);
u64 max_value(std::span<const u64> values);

/// Geometric mean; 0 for empty input or any non-positive value.
double geomean(std::span<const double> values);

/// Convenience conversion.
std::vector<double> to_doubles(std::span<const u64> values);

}  // namespace gg::stats
