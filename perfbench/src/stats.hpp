// Order statistics used for every reported figure.
#pragma once

#include <vector>

namespace ggbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
double median(std::vector<double> v);

/// Linear-interpolation percentile, p in [0, 100]: the value at rank
/// p/100 * (n-1) of the sorted sample, interpolating between neighbours.
/// 0 for an empty sample.
double percentile(std::vector<double> v, double p);

}  // namespace ggbench
