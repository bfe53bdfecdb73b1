// Small statistics helpers used by the measurement harness.
#pragma once

#include <vector>

namespace amdmb {

/// Least-squares line fit over (x, y) samples; used by the latency
/// micro-benchmarks to report per-input / per-output slopes.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< Coefficient of determination.
};

LineFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

/// Ratio of two doubles that tolerates a zero denominator.
double SafeRatio(double num, double den);

/// The p-th percentile (p in [0, 100]) of `samples` by linear
/// interpolation between closest ranks; 0.0 for an empty sample set.
/// Used by the serve daemon's per-figure latency stats.
double Percentile(std::vector<double> samples, double p);

}  // namespace amdmb
