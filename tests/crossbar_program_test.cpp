// Seeded property tests for Crossbar programming.
//
// The oracle is a test-local copy of the per-column programming walk the
// flat path replaced: levels kept as [slice][polarity][r * c] vectors, every
// cell of every column pulsed through the write-verify loop in (column,
// row, slice, polarity) order, with a FaultMap lookup per cell. The flat
// path pulses only the cells whose readback can differ from their target,
// and must agree with the oracle bit for bit: collapsed weights, every
// CrossbarStats field, health() and the column remap — after program(),
// after transient flips and drift, and across reprogramming.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "device/fault_map.hpp"
#include "device/quantizer.hpp"
#include "device/variation.hpp"

namespace reramdl {
namespace {

using circuit::Crossbar;
using circuit::CrossbarConfig;
using circuit::CrossbarGrid;
using circuit::CrossbarHealth;
using circuit::CrossbarStats;
using circuit::DegradePolicy;
using circuit::ProgramOptions;

// ---- Oracle: the per-column walk ---------------------------------------------

class ColumnWalkOracle {
 public:
  explicit ColumnWalkOracle(const CrossbarConfig& cfg) : cfg_(cfg) {}

  void program(const Tensor& weights, double w_max, const ProgramOptions& opts) {
    const std::uint64_t defects_before = stats_.defective_cells;
    r_ = weights.shape()[0];
    c_ = weights.shape()[1];
    const std::size_t num_slices = cfg_.slices();
    const std::size_t bpc = cfg_.cell.bits_per_cell;
    const double slice_max =
        static_cast<double>((std::uint64_t{1} << bpc) - 1);
    const device::LinearQuantizer wq(cfg_.weight_bits, w_max);

    fault_map_ = device::FaultMap(opts.faults);
    if (opts.faults.enabled())
      fault_map_.bind(num_slices, bpc, cfg_.rows, cfg_.cols);
    col_phys_.assign(c_, kNoCol);
    phys_owner_.assign(cfg_.cols, kNoCol);
    for (std::size_t j = 0; j < c_; ++j) col_phys_[j] = phys_owner_[j] = j;
    levels_.assign(num_slices, std::vector<std::vector<double>>(
                                   2, std::vector<double>(r_ * c_, 0.0)));

    std::vector<std::size_t> defective_cols;
    std::vector<std::vector<std::size_t>> col_defects(c_);
    for (std::size_t j = 0; j < c_; ++j) {
      Column cp = program_column(weights, wq, j, j, slice_max, opts);
      store_column(cp, j);
      if (!cp.defects.empty()) {
        defective_cols.push_back(j);
        col_defects[j] = cp.defects;
      }
    }
    stats_.programmed_cells += r_ * c_ * num_slices * 2;

    std::size_t next_spare = cfg_.data_cols();
    std::uint64_t remapped = 0;
    for (std::size_t j : defective_cols) {
      bool repaired = false;
      while (next_spare < cfg_.cols) {
        const std::size_t phys = next_spare++;
        Column trial = program_column(weights, wq, j, phys, slice_max, opts);
        stats_.programmed_cells += r_ * num_slices * 2;
        if (!trial.defects.empty()) continue;
        store_column(trial, j);
        phys_owner_[col_phys_[j]] = kNoCol;
        col_phys_[j] = phys;
        phys_owner_[phys] = j;
        remapped += r_ * num_slices * 2;
        ++stats_.spare_cols_used;
        col_defects[j].clear();
        repaired = true;
        break;
      }
      if (repaired) continue;
      if (opts.degrade == DegradePolicy::kFailFast) {
        std::ostringstream msg;
        msg << "crossbar column " << j << " has " << col_defects[j].size()
            << " unrepairable cell(s) and spares are exhausted ("
            << cfg_.spare_cols << " configured, " << stats_.spare_cols_used
            << " used); degrade policy is fail_fast";
        throw CheckError(msg.str());
      }
      if (opts.degrade == DegradePolicy::kClamp)
        for (std::size_t cell : col_defects[j])
          levels_[cell / (2 * r_)][(cell / r_) % 2][(cell % r_) * c_ + j] = 0.0;
      stats_.defective_cells += col_defects[j].size();
    }
    stats_.cells_remapped += remapped;

    std::uint64_t stuck_active = 0;
    if (fault_map_.enabled()) {
      for (const auto& f : fault_map_.stuck_faults()) {
        std::size_t s = 0, p = 0, i = 0, phys = 0;
        fault_map_.decode(f.cell, s, p, i, phys);
        if (i < r_ && phys_owner_[phys] != kNoCol) ++stuck_active;
      }
      stats_.stuck_cells += stuck_active;
      stats_.faults_injected += stuck_active;
    }
    age_ = 0.0;
    drift_ = 1.0;
    ++passes_;
    cur_stuck_ = stuck_active;
    cur_defective_ = stats_.defective_cells - defects_before;
    cur_spares_consumed_ = next_spare - cfg_.data_cols();
  }

  std::size_t inject_at(std::uint64_t step) {
    if (!fault_map_.enabled() || r_ == 0) return 0;
    const long long max_level = (1ll << cfg_.cell.bits_per_cell) - 1;
    std::size_t applied = 0;
    for (const auto& f : fault_map_.transients_at(step)) {
      if (f.row >= r_) continue;
      const std::size_t j = phys_owner_[f.col];
      if (j == kNoCol) continue;
      if (fault_map_.stuck_fault(f.slice, f.polarity, f.row, f.col) !=
          device::FaultType::kNone)
        continue;
      double& level = levels_[f.slice][f.polarity][f.row * c_ + j];
      const long long cur = std::clamp(
          static_cast<long long>(std::llround(level)), 0ll, max_level);
      level = static_cast<double>(cur ^ (1ll << f.bit));
      ++applied;
    }
    stats_.faults_injected += applied;
    return applied;
  }

  void apply_drift(double factor) {
    for (auto& slice : levels_)
      for (auto& polarity : slice)
        for (double& level : polarity) level *= factor;
    drift_ *= factor;
  }

  void advance_age(double dt) { age_ += dt; }

  std::vector<double> w_eff() const {
    std::vector<double> w(r_ * c_, 0.0);
    for (std::size_t s = 0; s < levels_.size(); ++s) {
      const double weight = static_cast<double>(
          std::uint64_t{1} << (s * cfg_.cell.bits_per_cell));
      for (std::size_t e = 0; e < r_ * c_; ++e)
        w[e] += weight * (levels_[s][0][e] - levels_[s][1][e]);
    }
    return w;
  }

  // The slice-walk MVM over the oracle's own levels (Crossbar's
  // compute_reference), so the flat path's level layout is checked too.
  std::vector<float> compute_reference(const std::vector<float>& x,
                                       double w_max, double x_max) const {
    const device::LinearQuantizer xq(cfg_.input_bits, x_max);
    const device::LinearQuantizer wq(cfg_.weight_bits, w_max);
    std::vector<double> acc(c_, 0.0);
    for (std::size_t i = 0; i < r_; ++i) {
      const double xi = static_cast<double>(xq.quantize(x[i]));
      if (xi == 0.0) continue;
      for (std::size_t j = 0; j < c_; ++j) {
        double w = 0.0;
        for (std::size_t s = 0; s < levels_.size(); ++s)
          w += static_cast<double>(
                   std::uint64_t{1} << (s * cfg_.cell.bits_per_cell)) *
               (levels_[s][0][i * c_ + j] - levels_[s][1][i * c_ + j]);
        acc[j] += xi * w;
      }
    }
    std::vector<float> y(c_);
    for (std::size_t j = 0; j < c_; ++j)
      y[j] = static_cast<float>(acc[j] * wq.step() * xq.step());
    return y;
  }

  CrossbarHealth health() const {
    CrossbarHealth h;
    h.stuck_cells = cur_stuck_;
    h.defective_cells = cur_defective_;
    for (std::size_t j = 0; j < c_; ++j)
      if (col_phys_[j] >= cfg_.data_cols()) ++h.spare_cols_used;
    h.spares_remaining = cfg_.spare_cols - cur_spares_consumed_;
    h.seconds_since_program = age_;
    h.cumulative_drift = drift_;
    h.program_passes = passes_;
    return h;
  }

  const CrossbarStats& stats() const { return stats_; }
  std::size_t physical_col(std::size_t j) const { return col_phys_[j]; }
  std::size_t cols() const { return c_; }

 private:
  static constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

  struct Column {
    std::vector<double> levels;  // (slice * 2 + polarity) * r + i
    std::vector<std::size_t> defects;
  };

  Column program_column(const Tensor& weights, const device::LinearQuantizer& wq,
                        std::size_t j, std::size_t phys, double slice_max,
                        const ProgramOptions& opts) {
    const std::size_t num_slices = cfg_.slices();
    Column cp;
    cp.levels.assign(num_slices * 2 * r_, 0.0);
    for (std::size_t i = 0; i < r_; ++i) {
      const std::int64_t q = wq.quantize(weights.at(i, j));
      const std::size_t polarity = q < 0 ? 1 : 0;
      const auto slices = device::bit_slice(
          static_cast<std::uint64_t>(q < 0 ? -q : q), cfg_.cell.bits_per_cell,
          num_slices);
      for (std::size_t s = 0; s < num_slices; ++s) {
        for (std::size_t p = 0; p < 2; ++p) {
          const double target =
              p == polarity ? static_cast<double>(slices[s]) : 0.0;
          const device::FaultType fault =
              fault_map_.enabled() ? fault_map_.stuck_fault(s, p, i, phys)
                                   : device::FaultType::kNone;
          bool defective = false;
          const std::size_t cell = (s * 2 + p) * r_ + i;
          cp.levels[cell] = program_cell(fault, target, slice_max, opts, defective);
          if (defective) cp.defects.push_back(cell);
        }
      }
    }
    return cp;
  }

  double program_cell(device::FaultType fault, double target, double slice_max,
                      const ProgramOptions& opts, bool& defective) {
    double aim = target, best = target;
    double best_err = std::numeric_limits<double>::infinity();
    const std::size_t attempts =
        opts.write_verify ? opts.max_program_retries + 1 : 1;
    for (std::size_t a = 0; a < attempts; ++a) {
      if (a > 0) ++stats_.verify_retries;
      double level = aim;
      if (opts.variation != nullptr)
        level = opts.variation->perturb(level, slice_max);
      level = device::FaultMap::apply(fault, level, slice_max);
      const double err = std::abs(level - target);
      if (err < best_err) {
        best = level;
        best_err = err;
      }
      if (!opts.write_verify || err <= opts.verify_tolerance) break;
      aim = std::clamp(aim + (target - level), 0.0, slice_max);
    }
    const double threshold =
        opts.defect_threshold > 0.0 ? opts.defect_threshold : slice_max * 0.25;
    defective = opts.write_verify && best_err > threshold;
    return best;
  }

  void store_column(const Column& cp, std::size_t j) {
    for (std::size_t s = 0; s < levels_.size(); ++s)
      for (std::size_t p = 0; p < 2; ++p)
        for (std::size_t i = 0; i < r_; ++i)
          levels_[s][p][i * c_ + j] = cp.levels[(s * 2 + p) * r_ + i];
  }

  CrossbarConfig cfg_;
  std::size_t r_ = 0, c_ = 0;
  std::vector<std::vector<std::vector<double>>> levels_;
  device::FaultMap fault_map_;
  std::vector<std::size_t> col_phys_, phys_owner_;
  CrossbarStats stats_;
  double age_ = 0.0, drift_ = 1.0;
  std::uint64_t passes_ = 0, cur_stuck_ = 0, cur_defective_ = 0,
                cur_spares_consumed_ = 0;
};

// ---- Comparison helpers --------------------------------------------------------

template <typename A, typename B>
void expect_bitwise_equal(const A& got, const B& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t e = 0; e < got.size(); ++e)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(got[e])),
              std::bit_cast<std::uint64_t>(static_cast<double>(want[e])))
        << what << " element " << e << ": " << got[e] << " vs " << want[e];
}

void expect_stats_equal(const CrossbarStats& a, const CrossbarStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.programmed_cells, b.programmed_cells) << what;
  EXPECT_EQ(a.compute_ops, b.compute_ops) << what;
  EXPECT_EQ(a.input_spikes, b.input_spikes) << what;
  EXPECT_EQ(a.saturated_counters, b.saturated_counters) << what;
  EXPECT_EQ(a.stuck_cells, b.stuck_cells) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
  EXPECT_EQ(a.verify_retries, b.verify_retries) << what;
  EXPECT_EQ(a.defective_cells, b.defective_cells) << what;
  EXPECT_EQ(a.cells_remapped, b.cells_remapped) << what;
  EXPECT_EQ(a.spare_cols_used, b.spare_cols_used) << what;
}

void expect_health_equal(const CrossbarHealth& a, const CrossbarHealth& b,
                         const std::string& what) {
  EXPECT_EQ(a.stuck_cells, b.stuck_cells) << what;
  EXPECT_EQ(a.defective_cells, b.defective_cells) << what;
  EXPECT_EQ(a.spare_cols_used, b.spare_cols_used) << what;
  EXPECT_EQ(a.spares_remaining, b.spares_remaining) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.seconds_since_program),
            std::bit_cast<std::uint64_t>(b.seconds_since_program))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cumulative_drift),
            std::bit_cast<std::uint64_t>(b.cumulative_drift))
      << what;
  EXPECT_EQ(a.program_passes, b.program_passes) << what;
}

void expect_matches_oracle(const Crossbar& xb, const ColumnWalkOracle& oracle,
                           double w_max, Rng& rng, const std::string& what) {
  expect_bitwise_equal(xb.effective_weights(), oracle.w_eff(), what + " w_eff");
  expect_stats_equal(xb.stats(), oracle.stats(), what);
  expect_health_equal(xb.health(), oracle.health(), what);
  ASSERT_EQ(xb.active_cols(), oracle.cols()) << what;
  for (std::size_t j = 0; j < oracle.cols(); ++j)
    EXPECT_EQ(xb.physical_col(j), oracle.physical_col(j)) << what << " col " << j;
  std::vector<float> x(xb.active_rows());
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  expect_bitwise_equal(xb.compute_reference(x, 1.0),
                       oracle.compute_reference(x, w_max, 1.0),
                       what + " compute_reference");
}

// ---- Random cases --------------------------------------------------------------

struct Case {
  CrossbarConfig cfg;
  std::size_t r = 0, c = 0;
  ProgramOptions opts;
  double sigma = 0.0;  // > 0: program through a VariationModel
  std::uint64_t variation_seed = 0;
  std::string label;
};

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return *(values.begin() + rng.uniform_index(values.size()));
}

Case random_case(Rng& rng, std::size_t k) {
  Case cs;
  cs.cfg.rows = 1 + rng.uniform_index(24);
  cs.cfg.spare_cols = rng.uniform_index(9);  // 0-8 spare bitlines
  cs.cfg.cols = cs.cfg.spare_cols + 1 + rng.uniform_index(24);
  cs.cfg.cell.bits_per_cell = pick<std::size_t>(rng, {1, 2, 4});
  cs.cfg.weight_bits =
      cs.cfg.cell.bits_per_cell * (1 + rng.uniform_index(4));
  cs.cfg.input_bits = 8;
  // Partial shapes: the programmed matrix rarely fills the array.
  cs.r = 1 + rng.uniform_index(cs.cfg.rows);
  cs.c = 1 + rng.uniform_index(cs.cfg.data_cols());

  ProgramOptions& o = cs.opts;
  o.faults.stuck_at_off_rate = pick(rng, {0.0, 1e-3, 1e-2, 5e-2});
  o.faults.stuck_at_on_rate = pick(rng, {0.0, 1e-3, 1e-2, 5e-2});
  o.faults.transient_flip_rate = pick(rng, {0.0, 1e-2, 5e-2});
  o.faults.seed = rng.next_u64();
  o.write_verify = rng.uniform() < 0.5;
  o.max_program_retries = rng.uniform_index(5);
  o.verify_tolerance = pick(rng, {0.0, 0.25, 0.49, 1.0});
  o.defect_threshold = pick(rng, {0.0, 0.5, 1.5});
  o.degrade = pick(rng, {DegradePolicy::kFailFast, DegradePolicy::kClamp,
                         DegradePolicy::kBestEffort});
  if (rng.uniform() < 0.5) {
    cs.sigma = pick(rng, {0.05, 0.2, 0.5});
    cs.variation_seed = rng.next_u64();
  }
  std::ostringstream label;
  label << "case " << k << " [" << cs.cfg.rows << "x" << cs.cfg.cols
        << " spare=" << cs.cfg.spare_cols << " bpc=" << cs.cfg.cell.bits_per_cell
        << " wb=" << cs.cfg.weight_bits << " r=" << cs.r << " c=" << cs.c
        << " off=" << o.faults.stuck_at_off_rate
        << " on=" << o.faults.stuck_at_on_rate
        << " flip=" << o.faults.transient_flip_rate << " wv=" << o.write_verify
        << " retries=" << o.max_program_retries
        << " degrade=" << static_cast<int>(o.degrade) << " sigma=" << cs.sigma
        << "]";
  cs.label = label.str();
  return cs;
}

// Programs `xb` and `oracle` identically; each gets its own VariationModel
// with the same seed, so equal draw orders give equal levels. Returns false
// (after checking both threw the same error) on a fail-fast throw.
bool program_both(Crossbar& xb, ColumnWalkOracle& oracle, const Case& cs,
                  const Tensor& w, double w_max, std::uint64_t pass) {
  std::optional<device::VariationModel> vx, vo;
  ProgramOptions ox = cs.opts, oo = cs.opts;
  if (cs.sigma > 0.0) {
    vx.emplace(device::VariationParams{cs.sigma}, Rng(cs.variation_seed + pass));
    vo.emplace(device::VariationParams{cs.sigma}, Rng(cs.variation_seed + pass));
    ox.variation = &*vx;
    oo.variation = &*vo;
  }
  std::string oracle_error, xbar_error;
  try {
    oracle.program(w, w_max, oo);
  } catch (const CheckError& e) {
    oracle_error = e.what();
  }
  try {
    xb.program(w, w_max, ox);
  } catch (const CheckError& e) {
    xbar_error = e.what();
  }
  EXPECT_EQ(xbar_error, oracle_error) << cs.label;
  if (!oracle_error.empty()) return false;
  // Both models must have consumed exactly the same draws.
  if (cs.sigma > 0.0) {
    EXPECT_EQ(vx->perturb(1.0, 15.0), vo->perturb(1.0, 15.0)) << cs.label;
  }
  return true;
}

TEST(CrossbarProgram, FlatPathMatchesColumnWalkOracle) {
  Rng rng(20260418);
  std::size_t fail_fast_cases = 0, remapped_cases = 0, varied_cases = 0;
  for (std::size_t k = 0; k < 300; ++k) {
    const Case cs = random_case(rng, k);
    Crossbar xb(cs.cfg);
    ColumnWalkOracle oracle(cs.cfg);
    bool live = true;
    // Two passes through the same array: the second (a reprogram of a
    // different shape) reuses the first pass's buffers.
    for (std::uint64_t pass = 0; pass < 2 && live; ++pass) {
      const std::size_t r = pass == 0 ? cs.r : 1 + rng.uniform_index(cs.cfg.rows);
      const std::size_t c =
          pass == 0 ? cs.c : 1 + rng.uniform_index(cs.cfg.data_cols());
      const Tensor w = Tensor::uniform(Shape{r, c}, rng, -1.0f, 1.0f);
      const double w_max = pick(rng, {0.5, 1.0, 2.0});
      const std::string what = cs.label + " pass " + std::to_string(pass);
      live = program_both(xb, oracle, cs, w, w_max, pass);
      if (!live) {
        ++fail_fast_cases;
        break;
      }
      expect_matches_oracle(xb, oracle, w_max, rng, what + " program");

      // Transient flips, then drift and age, in a seeded interleaving.
      for (std::uint64_t step = 1; step <= 3; ++step) {
        EXPECT_EQ(xb.inject_at(step + 10 * pass), oracle.inject_at(step + 10 * pass))
            << what;
        const double factor = pick(rng, {1.0, 0.97, 0.8});
        xb.apply_drift(factor);
        oracle.apply_drift(factor);
        xb.advance_age(0.5 * static_cast<double>(step));
        oracle.advance_age(0.5 * static_cast<double>(step));
      }
      expect_matches_oracle(xb, oracle, w_max, rng, what + " inject+drift");
      if (xb.stats().spare_cols_used > 0) ++remapped_cases;
    }
    if (cs.sigma > 0.0) ++varied_cases;
    if (testing::Test::HasFatalFailure()) return;
  }
  // The sampled space must reach every branch it claims to cover.
  EXPECT_GT(fail_fast_cases, 0u);
  EXPECT_GT(remapped_cases, 0u);
  EXPECT_GT(varied_cases, 0u);
}

// ---- Grid refresh ----------------------------------------------------------------

void expect_tiles_equal(const CrossbarGrid& got, const CrossbarGrid& want,
                        std::size_t t, bool same_history, const std::string& what) {
  const Crossbar& a = got.array(t);
  const Crossbar& b = want.array(t);
  expect_bitwise_equal(a.effective_weights(), b.effective_weights(),
                       what + " tile " + std::to_string(t));
  ASSERT_EQ(a.active_cols(), b.active_cols()) << what;
  for (std::size_t j = 0; j < a.active_cols(); ++j)
    EXPECT_EQ(a.physical_col(j), b.physical_col(j)) << what << " tile " << t;
  CrossbarHealth ha = a.health(), hb = b.health();
  if (!same_history) {
    // A refresh is one more program pass on the same array.
    EXPECT_EQ(ha.program_passes, hb.program_passes + 1) << what;
    ha.program_passes = hb.program_passes;
  }
  expect_health_equal(ha, hb, what + " tile " + std::to_string(t));
}

TEST(CrossbarProgram, RefreshTileOnUsedGridMatchesFreshProgram) {
  Rng rng(777);
  for (std::size_t k = 0; k < 40; ++k) {
    CrossbarConfig cfg;
    cfg.rows = 4 + rng.uniform_index(16);
    cfg.spare_cols = rng.uniform_index(5);
    cfg.cols = cfg.spare_cols + 4 + rng.uniform_index(16);
    const std::size_t R = 1 + rng.uniform_index(3 * cfg.rows);
    const std::size_t C = 1 + rng.uniform_index(3 * cfg.data_cols());
    ProgramOptions opts;
    opts.faults.stuck_at_off_rate = pick(rng, {0.0, 5e-3, 3e-2});
    opts.faults.stuck_at_on_rate = pick(rng, {0.0, 5e-3, 3e-2});
    opts.faults.transient_flip_rate = 2e-2;
    opts.faults.seed = rng.next_u64();
    opts.write_verify = rng.uniform() < 0.7;
    opts.defect_threshold = 1.5;
    opts.degrade = pick(rng, {DegradePolicy::kClamp, DegradePolicy::kBestEffort});
    const Tensor w = Tensor::uniform(Shape{R, C}, rng, -1.0f, 1.0f);
    const std::string what = "grid case " + std::to_string(k);

    CrossbarGrid used(cfg), fresh(cfg);
    used.program(w, 1.0, opts);
    // Wear the used grid: flips, per-tile drift, age.
    used.inject_at(1);
    used.inject_at(2);
    for (std::size_t t = 0; t < used.num_arrays(); ++t)
      used.apply_drift_tile(t, 0.9);
    used.advance_age(50.0);
    for (std::size_t t = 0; t < used.num_arrays(); ++t)
      used.refresh_tile(t, w, opts);
    fresh.program(w, 1.0, opts);
    ASSERT_EQ(used.num_arrays(), fresh.num_arrays()) << what;
    for (std::size_t t = 0; t < used.num_arrays(); ++t)
      expect_tiles_equal(used, fresh, t, /*same_history=*/false, what);

    // Reprogramming the whole used grid (new weights) reuses its arrays but
    // must read exactly like a freshly built grid, stats included.
    const Tensor w2 = Tensor::uniform(Shape{R, C}, rng, -1.0f, 1.0f);
    CrossbarGrid fresh2(cfg);
    used.program(w2, 0.75, opts);
    fresh2.program(w2, 0.75, opts);
    for (std::size_t t = 0; t < used.num_arrays(); ++t)
      expect_tiles_equal(used, fresh2, t, /*same_history=*/true, what);
    expect_stats_equal(used.aggregate_stats(), fresh2.aggregate_stats(), what);
    if (testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace reramdl
