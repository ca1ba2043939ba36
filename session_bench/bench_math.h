// The session benchmark's own arithmetic: medians, the tail-percentile rule,
// metric-name checks, self-time subtraction and the bit-identity comparator.
// Header-only so test_bench_math.cpp checks exactly what bench_session runs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace sidco::bench {

/// Median of `values` (mean of the two middle values for an even count).
/// Empty input reads 0.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

inline double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A tail percentile chosen by the rule "the highest percentile that has at
/// least `beyond` samples above it".
struct Tail {
  double percentile = 0.0;  ///< 0 when no ladder rung qualifies
  double value = 0.0;
  std::size_t samples = 0;
};

/// Percentiles the tail rule may pick, highest first.  A fixed ladder keeps
/// the reported percentile the same across runs with similar sample counts.
inline constexpr std::array<double, 6> kTailLadder = {99.9, 99.0, 95.0,
                                                      90.0, 75.0, 50.0};

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample; the
/// samples after it are the ones "beyond" it.  With fewer than
/// `beyond` + 1 samples above the median no rung qualifies and the result
/// has percentile 0 and the maximum as its value.
inline Tail tail_percentile(std::vector<double> values,
                            std::size_t beyond = 10) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  for (const double p : kTailLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    const std::size_t position = std::max<std::size_t>(rank, 1);
    if (values.size() - position >= beyond) {
      tail.percentile = p;
      tail.value = values[position - 1];
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

/// BENCHMARK.json name rule: starts with a letter or digit, at most 64
/// characters of letters, digits, '_', '.' and '-'.
inline bool valid_metric_name(std::string_view name) {
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// BENCHMARK.json unit rule: 1 to 16 characters of letters, digits, '_',
/// '/', '%', '.' and '-'.
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

/// A span's self time: its duration minus the durations of the child spans
/// it encloses.  Negative when the children were timed longer than the
/// parent (the shadow-model timing check in README.md reads this sign).
inline double self_time(double total, std::span<const double> children) {
  double self = total;
  for (const double c : children) self -= c;
  return self;
}

/// True when both sequences hold the same values bit for bit: -0 differs from
/// +0, a NaN equals only the identical NaN, and a 1-ulp change differs.
template <typename T>
bool bit_identical(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// 64-bit FNV-1a of the values' bytes, so a run can keep one number per
/// parameter vector instead of the vector.  Each byte step is a bijection of
/// the state, so vectors of equal length that differ in any single byte
/// (a 1-ulp change included) always hash differently.
template <typename T>
std::uint64_t fingerprint(std::span<const T> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sidco::bench
