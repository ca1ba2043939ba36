// Checks the session benchmark's own arithmetic (bench_math.h).  Plain
// executable: exits non-zero and names every failed check.
//
//   cmake --build .bench_build/session_bench --target test_bench_math
//   ctest --test-dir .bench_build/session_bench
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_math.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_median() {
  using sidco::bench::median;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages");
}

void test_tail_percentile() {
  using sidco::bench::tail_percentile;
  // 19 samples: even p50 (rank 10) leaves only 9 beyond it.
  const auto t19 = tail_percentile(one_to(19));
  expect(t19.percentile == 0.0 && t19.value == 19.0 && t19.samples == 19,
         "19 samples: no rung has 10 beyond, report the max");
  // 20 samples: p50 is rank 10 with exactly 10 beyond.
  const auto t20 = tail_percentile(one_to(20));
  expect(t20.percentile == 50.0 && t20.value == 10.0, "20 samples -> p50");
  // 40 samples: p75 is rank 30 with 10 beyond; p90 (rank 36) has 4.
  const auto t40 = tail_percentile(one_to(40));
  expect(t40.percentile == 75.0 && t40.value == 30.0, "40 samples -> p75");
  // 39 samples: p75 is rank ceil(29.25) = 30 with only 9 beyond.
  const auto t39 = tail_percentile(one_to(39));
  expect(t39.percentile == 50.0 && t39.value == 20.0, "39 samples -> p50");
  // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5.
  const auto t100 = tail_percentile(one_to(100));
  expect(t100.percentile == 90.0 && t100.value == 90.0, "100 samples -> p90");
  // 1000 samples: p99 is rank 990 with exactly 10 beyond.
  const auto t1000 = tail_percentile(one_to(1000));
  expect(t1000.percentile == 99.0 && t1000.value == 990.0,
         "1000 samples -> p99");
  // A custom threshold moves the rung.
  const auto t40b = tail_percentile(one_to(40), 4);
  expect(t40b.percentile == 90.0 && t40b.value == 36.0,
         "40 samples, 4 beyond -> p90");
}

void test_metric_names() {
  using sidco::bench::valid_metric_name;
  using sidco::bench::valid_unit;
  expect(valid_metric_name("sim_samples_per_s"), "plain name");
  expect(valid_metric_name("dist.round_ms_p50"), "dotted name");
  expect(valid_metric_name("9-lives"), "leading digit");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name(".hidden"), "leading dot");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name("a b"), "space");
  expect(!valid_metric_name("a/b"), "slash");
  expect(!valid_metric_name("caf\xc3\xa9"), "non-ASCII");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
  expect(valid_unit("samples/s") && valid_unit("%") && valid_unit("MiB"),
         "units");
  expect(!valid_unit("") && !valid_unit("a b") &&
             !valid_unit(std::string(17, 's')),
         "bad units");
}

void test_self_time() {
  using sidco::bench::self_time;
  const std::vector<double> children = {2.5, 1.0, 0.25};
  expect(self_time(4.0, children) == 0.25, "self = total - children");
  expect(self_time(3.0, children) == -0.75,
         "children timed longer than the parent read negative");
  expect(self_time(1.5, {}) == 1.5, "no children");
}

void test_bit_identity() {
  using sidco::bench::bit_identical;
  using sidco::bench::fingerprint;
  const std::vector<float> a = {1.0F, -2.5F, 3.25e-8F, 0.0F};
  expect(bit_identical<float>(a, std::vector<float>(a)),
         "copies are identical");
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::vector<float> nudged(a);
    nudged[i] = std::nextafter(a[i], std::numeric_limits<float>::infinity());
    expect(!bit_identical<float>(a, nudged), "1-ulp perturbation is rejected");
    expect(fingerprint<float>(a) != fingerprint<float>(nudged),
           "1-ulp perturbation changes the fingerprint");
  }
  expect(fingerprint<float>(a) == fingerprint<float>(std::vector<float>(a)),
         "copies share a fingerprint");
  const std::vector<float> negative_zero = {1.0F, -2.5F, 3.25e-8F, -0.0F};
  expect(!bit_identical<float>(a, negative_zero), "-0 differs from +0");
  const std::vector<float> shorter(a.begin(), a.end() - 1);
  expect(!bit_identical<float>(a, shorter), "length mismatch");
  const std::vector<double> l = {2.302585092994046};
  std::vector<double> m = l;
  m[0] = std::nextafter(l[0], 0.0);
  expect(!bit_identical<double>(l, m), "1-ulp double perturbation");
}

}  // namespace

int main() {
  test_median();
  test_tail_percentile();
  test_metric_names();
  test_self_time();
  test_bit_identity();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("test_bench_math: all checks passed\n");
  return 0;
}
