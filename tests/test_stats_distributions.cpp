#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats/distributions.hpp"

namespace wehey::stats {
namespace {

TEST(NormalDist, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.96), 0.0249979, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501, 1e-6);
}

TEST(NormalDist, SfComplementsCdf) {
  for (double x : {-3.0, -1.0, 0.0, 0.5, 2.0, 4.0}) {
    EXPECT_NEAR(normal_cdf(x) + normal_sf(x), 1.0, 1e-12);
  }
}

TEST(NormalDist, SfAccurateInTail) {
  // Far-tail survival without cancellation: P(Z > 6) ~ 9.87e-10.
  EXPECT_NEAR(normal_sf(6.0) / 9.8659e-10, 1.0, 1e-3);
}

TEST(NormalDist, QuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-7);
  }
}

TEST(IncompleteBeta, Boundaries) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2, 3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2, 3, 1.0), 1.0);
}

TEST(IncompleteBeta, SymmetricCase) {
  // I_{1/2}(a, a) = 1/2 for any a.
  for (double a : {0.5, 1.0, 2.0, 7.5}) {
    EXPECT_NEAR(incomplete_beta(a, a, 0.5), 0.5, 1e-10);
  }
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (double x : {0.1, 0.33, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1, 1, x), x, 1e-10);
  }
}

TEST(StudentT, CdfAtZero) {
  for (double df : {1.0, 5.0, 30.0}) {
    EXPECT_NEAR(student_t_cdf(0.0, df), 0.5, 1e-12);
  }
}

TEST(StudentT, KnownCriticalValues) {
  // t_{0.975, 10} = 2.228139.
  EXPECT_NEAR(student_t_cdf(2.228139, 10), 0.975, 1e-5);
  // t_{0.95, 5} = 2.015048.
  EXPECT_NEAR(student_t_cdf(2.015048, 5), 0.95, 1e-5);
  // Cauchy case (df = 1): CDF(1) = 0.75.
  EXPECT_NEAR(student_t_cdf(1.0, 1), 0.75, 1e-9);
}

TEST(StudentT, ApproachesNormalForLargeDf) {
  EXPECT_NEAR(student_t_cdf(1.96, 1e6), normal_cdf(1.96), 1e-4);
}

TEST(StudentT, TwoSidedPSymmetric) {
  EXPECT_NEAR(student_t_two_sided_p(2.0, 10),
              2.0 * (1.0 - student_t_cdf(2.0, 10)), 1e-10);
  EXPECT_NEAR(student_t_two_sided_p(-2.0, 10),
              student_t_two_sided_p(2.0, 10), 1e-12);
}

// Localizations call these on every trial-engine worker at once. Each of
// 4 concurrent threads must reproduce the serial results bit for bit (no
// shared libm state such as lgamma's `signgam`).
std::vector<std::uint64_t> beta_and_t_bits() {
  std::vector<std::uint64_t> out;
  for (double a : {0.5, 1.5, 4.0, 12.0}) {
    for (double b : {0.5, 2.0, 9.0}) {
      for (double x : {0.05, 0.3, 0.5, 0.8, 0.97}) {
        out.push_back(std::bit_cast<std::uint64_t>(incomplete_beta(a, b, x)));
      }
    }
  }
  for (double df : {1.0, 3.0, 10.0, 57.0}) {
    for (double t : {-4.0, -1.3, 0.2, 2.0, 6.5}) {
      out.push_back(std::bit_cast<std::uint64_t>(student_t_cdf(t, df)));
    }
  }
  return out;
}

TEST(IncompleteBeta, ConcurrentEvaluationMatchesSerialBitForBit) {
  const auto serial = beta_and_t_bits();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> results(kThreads);
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&results, i] {
      for (int rep = 0; rep < 50; ++rep) results[i] = beta_and_t_bits();
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& r : results) EXPECT_EQ(r, serial);
}

TEST(Kolmogorov, KnownValues) {
  // Q(1.36) = 2*exp(-2*1.36^2) - ... ~ 0.04947 (1.36 is the classic ~5%
  // critical value).
  EXPECT_NEAR(kolmogorov_sf(1.36), 0.04947, 5e-4);
  EXPECT_NEAR(kolmogorov_sf(1.22), 0.1019, 1e-3);
  EXPECT_DOUBLE_EQ(kolmogorov_sf(0.0), 1.0);
}

TEST(Kolmogorov, MonotoneDecreasing) {
  double prev = 1.0;
  for (double lambda = 0.1; lambda < 3.0; lambda += 0.1) {
    const double v = kolmogorov_sf(lambda);
    EXPECT_LE(v, prev + 1e-12);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

}  // namespace
}  // namespace wehey::stats
