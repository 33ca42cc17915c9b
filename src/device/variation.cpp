#include "device/variation.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace reramdl::device {

VariationModel::VariationModel(VariationParams params, Rng rng)
    : params_(params), rng_(rng) {
  RERAMDL_CHECK_GE(params.sigma, 0.0);
  // One draw stays reserved: it used to seed a fault map from stuck-at
  // rates this struct no longer carries. Skipping it would shift every
  // later lognormal draw, so every varied run would stop reproducing its
  // recorded levels and results.
  (void)rng_.next_u64();
}

double VariationModel::perturb(double ideal_level, double max_level) {
  double level = ideal_level;
  if (params_.sigma > 0.0) level *= rng_.lognormal_unit_mean(params_.sigma);
  return std::clamp(level, 0.0, max_level);
}

}  // namespace reramdl::device
