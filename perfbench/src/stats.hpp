// Sample statistics the benchmark reports. Kept free of I/O and clocks so
// the self-test can check each rule on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (0 < p <= 100) of an unsorted sample: the
/// smallest value with at least p% of the sample at or below it.
/// 1-based nearest rank of the p-th percentile in a sample of `n`. The
/// tolerance keeps p * n / 100 from rounding up past an exact integer.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::ceil(exact - 1e-9)), 1, n);
}

inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The smallest sample whose p-th percentile has at least ten samples
/// beyond it (100 for p90, 1000 for p99).
inline std::size_t tail_block(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < 10) {
    ++n;
  }
  return n;
}

/// Median with the midpoint rule for even sizes (Python's
/// statistics.median).
inline double median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The median over consecutive whole blocks of `block` values (in the
/// order given; a trailing partial block is left out) of each block's p-th
/// percentile. Needs at least one whole block.
inline double block_percentile(const std::vector<double>& values, double p,
                               std::size_t block) {
  std::vector<double> per_block;
  for (std::size_t at = 0; block > 0 && at + block <= values.size(); at += block) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(at);
    per_block.push_back(
        percentile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(block)), p));
  }
  return median(per_block);
}

/// First and third quartiles by Python's statistics.quantiles(values, n=4)
/// (the default "exclusive" method), which is how run-to-run spread is
/// judged. Needs at least two values.
inline std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::ptrdiff_t>(values.size());
  const std::ptrdiff_t m = n + 1;
  const auto cut = [&](std::ptrdiff_t i) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i * m / 4, 1, n - 1);
    const std::ptrdiff_t delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

/// Quartile spread, (Q3 - Q1) / median: the measure of a metric's
/// steadiness across runs, used here for the samples inside one run.
inline double spread(const std::vector<double>& values) {
  const auto [q1, q3] = quartiles(values);
  return (q3 - q1) / median(values);
}

/// Open-loop pacing against a caller-supplied nanosecond clock: a request
/// due at `due` starts at the first clock reading at or after it. The
/// generator is late when it reaches a request after its due time (the
/// previous work overran); otherwise it spins, and the spin is idle time.
template <class Clock>
class Pacer {
 public:
  explicit Pacer(Clock clock) : clock_(std::move(clock)) {}

  /// Waits until `due`; returns how late the start was (start - due).
  std::uint64_t wait_until(std::uint64_t due) {
    std::uint64_t now = clock_();
    if (now < due) {
      const std::uint64_t begin = now;
      while (now < due) {
        now = clock_();
      }
      idle_ns_ += now - begin;
    }
    return now - due;
  }

  [[nodiscard]] std::uint64_t idle_ns() const noexcept { return idle_ns_; }

 private:
  Clock clock_;
  std::uint64_t idle_ns_ = 0;
};

}  // namespace perfbench
