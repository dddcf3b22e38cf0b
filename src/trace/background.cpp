#include "trace/background.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace wehey::trace {

std::vector<BackgroundFlow> generate_background(const BackgroundConfig& cfg,
                                                Rng& rng) {
  WEHEY_EXPECTS(cfg.flows_per_second > 0.0);
  WEHEY_EXPECTS(cfg.duration > 0);

  // Choose the mean flow size so that arrival_rate * mean_size * 8 equals
  // the target rate. The mixture is log-normal (body) + Pareto (tail); we
  // first compute the unscaled mixture mean, then scale sizes.
  const double target_mean_bytes =
      cfg.target_rate / 8.0 / cfg.flows_per_second;

  // Unscaled components: log-normal with median ~20 KB, sigma 1.2;
  // Pareto tail starting at 200 KB.
  const double ln_mu = std::log(20e3);
  const double ln_sigma = 1.2;
  const double ln_mean = std::exp(ln_mu + ln_sigma * ln_sigma / 2.0);
  const double pareto_scale = 200e3;
  const double pareto_mean =
      cfg.pareto_shape > 1.0
          ? pareto_scale * cfg.pareto_shape / (cfg.pareto_shape - 1.0)
          : pareto_scale * 10.0;  // truncated-mean stand-in for alpha<=1
  const double mixture_mean = (1.0 - cfg.pareto_tail_prob) * ln_mean +
                              cfg.pareto_tail_prob * pareto_mean;
  const double scale = target_mean_bytes / mixture_mean;

  // Two-layer piecewise-constant arrival-intensity modulation (a fast
  // layer at the configured period and a slow layer at 4x that period),
  // approximating the multi-timescale burstiness of long-range-dependent
  // backbone traffic. Each layer is lognormal with sigma/sqrt(2) so the
  // product has the configured overall sigma; normalization keeps the
  // long-run mean intensity at flows_per_second.
  std::vector<double> fast_layer, slow_layer;
  if (cfg.modulation_sigma > 0.0 && cfg.modulation_period > 0) {
    const double layer_sigma = cfg.modulation_sigma / std::sqrt(2.0);
    const double mean_factor =
        std::exp(layer_sigma * layer_sigma / 2.0);
    const auto fast_n = static_cast<std::size_t>(
        cfg.duration / cfg.modulation_period + 1);
    const auto slow_n = static_cast<std::size_t>(
        cfg.duration / (4 * cfg.modulation_period) + 1);
    for (std::size_t i = 0; i < fast_n; ++i) {
      fast_layer.push_back(
          std::min(4.0, std::max(0.25, rng.lognormal(0.0, layer_sigma))) /
          mean_factor);
    }
    for (std::size_t i = 0; i < slow_n; ++i) {
      slow_layer.push_back(
          std::min(4.0, std::max(0.25, rng.lognormal(0.0, layer_sigma))) /
          mean_factor);
    }
  }
  auto intensity_at = [&](Time t) {
    if (fast_layer.empty()) return 1.0;
    auto fi = static_cast<std::size_t>(t / cfg.modulation_period);
    if (fi >= fast_layer.size()) fi = fast_layer.size() - 1;
    auto si = static_cast<std::size_t>(t / (4 * cfg.modulation_period));
    if (si >= slow_layer.size()) si = slow_layer.size() - 1;
    return fast_layer[fi] * slow_layer[si];
  };
  std::vector<double> intensity;  // sampled per fast period, for the max
  for (std::size_t i = 0; i < fast_layer.size(); ++i) {
    intensity.push_back(
        intensity_at(static_cast<Time>(i) * cfg.modulation_period));
  }
  double max_intensity = 1.0;
  for (double v : intensity) max_intensity = std::max(max_intensity, v);

  // Non-homogeneous Poisson by thinning: candidates arrive at the peak
  // rate and are kept with probability intensity(t) / max_intensity.
  std::vector<BackgroundFlow> flows;
  const double mean_gap = 1.0 / (cfg.flows_per_second * max_intensity);
  Time at = seconds(rng.exponential(mean_gap));
  while (at < cfg.duration) {
    if (!intensity.empty() &&
        !rng.bernoulli(intensity_at(at) / max_intensity)) {
      at += seconds(rng.exponential(mean_gap));
      continue;
    }
    double bytes;
    if (rng.bernoulli(cfg.pareto_tail_prob)) {
      bytes = rng.pareto(pareto_scale, cfg.pareto_shape);
      // Truncate the tail so one monster flow cannot dominate a short
      // experiment (CAIDA segments are similarly bounded in time).
      bytes = std::min(bytes, 40.0 * pareto_scale);
    } else {
      bytes = rng.lognormal(ln_mu, ln_sigma);
    }
    BackgroundFlow f;
    f.start = at;
    f.bytes = std::max<std::int64_t>(400, static_cast<std::int64_t>(bytes * scale));
    flows.push_back(f);
    at += seconds(rng.exponential(mean_gap));
  }
  return flows;
}

void mark_differentiated(std::vector<BackgroundFlow>& flows, double fraction,
                         Rng& rng) {
  WEHEY_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  for (auto& f : flows) f.differentiated = rng.bernoulli(fraction);
}

std::int64_t total_bytes(const std::vector<BackgroundFlow>& flows) {
  std::int64_t sum = 0;
  for (const auto& f : flows) sum += f.bytes;
  return sum;
}

}  // namespace wehey::trace
