// Online-maintenance acceptance tests (DESIGN.md §16): endurance tracking,
// tile health/refresh, the MaintenanceEngine's triggers, the three
// arbitration policies against a serving workload, and bit-reproducibility
// of the engine-managed replay across thread counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "circuit/crossbar_grid.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/functional.hpp"
#include "device/endurance_tracker.hpp"
#include "maint/engine.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "serving/server.hpp"
#include "serving/workload.hpp"

namespace reramdl {
namespace {

using circuit::CrossbarConfig;
using circuit::CrossbarGrid;
using circuit::CrossbarHealth;
using circuit::ProgramOptions;
using device::EnduranceTracker;
using maint::MaintenanceConfig;
using maint::MaintenanceEngine;
using maint::Policy;

class MaintTest : public ::testing::Test {
 protected:
  void TearDown() override { parallel::set_thread_count(0); }
};

// ---- EnduranceTracker -------------------------------------------------------

TEST_F(MaintTest, EnduranceTrackerCountsAndRotates) {
  EnduranceTracker t(4, 100.0);
  for (std::size_t i = 0; i < 4; ++i) t.record_program(i);
  EXPECT_EQ(t.total_writes(), 4u);
  EXPECT_EQ(t.imbalance_since_rotation(), 0u);

  // Hammer logical tile 1: wear lands on physical array 1.
  for (int i = 0; i < 5; ++i) t.record_program(1);
  EXPECT_EQ(t.writes(1), 6u);
  EXPECT_EQ(t.imbalance_since_rotation(), 5u);
  EXPECT_DOUBLE_EQ(t.wear_fraction(), 0.06);

  t.rotate();
  EXPECT_EQ(t.rotations(), 1u);
  // Rotation resets the imbalance baseline but not lifetime wear...
  EXPECT_EQ(t.imbalance_since_rotation(), 0u);
  EXPECT_EQ(t.max_writes(), 6u);
  // ...and shifts the logical->physical map by one.
  EXPECT_EQ(t.physical_of(0), 1u);
  EXPECT_EQ(t.physical_of(3), 0u);
  // Logical tile 1 now wears physical array 2.
  t.record_program(1);
  EXPECT_EQ(t.writes(2), 2u);
}

// ---- Crossbar / grid health -------------------------------------------------

TEST_F(MaintTest, HealthTracksAgeDriftAndResetsOnProgram) {
  Rng rng(60);
  const Tensor w = Tensor::uniform(Shape{32, 32}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  circuit::Crossbar xbar(cfg);
  xbar.program(w, 1.0);

  CrossbarHealth h = xbar.health();
  EXPECT_EQ(h.program_passes, 1u);
  EXPECT_DOUBLE_EQ(h.seconds_since_program, 0.0);
  EXPECT_DOUBLE_EQ(h.cumulative_drift, 1.0);

  xbar.advance_age(50.0);
  xbar.apply_drift(0.98);
  xbar.apply_drift(0.99);
  h = xbar.health();
  EXPECT_DOUBLE_EQ(h.seconds_since_program, 50.0);
  EXPECT_DOUBLE_EQ(h.cumulative_drift, 0.98 * 0.99);

  xbar.program(w, 1.0);  // reprogram restores fresh state
  h = xbar.health();
  EXPECT_EQ(h.program_passes, 2u);
  EXPECT_DOUBLE_EQ(h.seconds_since_program, 0.0);
  EXPECT_DOUBLE_EQ(h.cumulative_drift, 1.0);
}

TEST_F(MaintTest, HealthReportsSpareUsage) {
  Rng rng(61);
  const Tensor w = Tensor::uniform(Shape{32, 30}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = 32;
  cfg.cols = 34;
  cfg.spare_cols = 4;
  ProgramOptions opts;
  opts.faults.stuck_at_off_rate = 0.002;
  opts.faults.seed = 62;
  opts.write_verify = true;
  circuit::Crossbar xbar(cfg);
  xbar.program(w, 1.0, opts);
  const CrossbarHealth h = xbar.health();
  // Consumed spares (hosting or burned by failed trials) plus the remaining
  // pool never exceed the configured spare count.
  EXPECT_LE(h.spare_cols_used, 4u);
  EXPECT_LE(h.spares_remaining, 4u - h.spare_cols_used);
  EXPECT_EQ(h.stuck_cells, xbar.stats().stuck_cells);
  EXPECT_EQ(h.spare_cols_used, xbar.stats().spare_cols_used);
}

TEST_F(MaintTest, GridRefreshTileRestoresLevelsBitwise) {
  Rng rng(63);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  CrossbarGrid grid(cfg);
  ProgramOptions opts;
  opts.faults.transient_flip_rate = 2e-3;
  opts.faults.seed = 64;
  grid.program(w, 1.0, opts);
  ASSERT_EQ(grid.num_arrays(), 4u);
  const auto pristine2 = grid.array(2).effective_weights();

  // Damage tile 2 (drift + flips), then refresh it in place.
  grid.apply_drift_tile(2, 0.9);
  grid.advance_age(100.0);
  grid.inject_at(5);
  EXPECT_GT(grid.health().seconds_since_program, 0.0);

  const std::uint64_t cells = grid.refresh_tile(2, w, opts);
  EXPECT_GT(cells, 0u);
  const auto& after = grid.array(2).effective_weights();
  ASSERT_EQ(after.size(), pristine2.size());
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_EQ(after[i], pristine2[i]);
  // The refreshed tile's clock is reset; others still carry their age.
  EXPECT_DOUBLE_EQ(grid.array(2).health().seconds_since_program, 0.0);
  EXPECT_DOUBLE_EQ(grid.array(0).health().seconds_since_program, 100.0);
}

TEST_F(MaintTest, PhysMapRotationChangesFaultPopulationDeterministically) {
  Rng rng(65);
  const Tensor w = Tensor::uniform(Shape{64, 64}, rng, -1.0f, 1.0f);
  CrossbarConfig cfg;
  cfg.rows = cfg.cols = 32;
  ProgramOptions opts;
  opts.faults.stuck_at_off_rate = 0.01;
  opts.faults.seed = 66;

  CrossbarGrid a(cfg), b(cfg);
  a.program(w, 1.0, opts);
  b.program(w, 1.0, opts);

  // Rotated map: tile t takes physical slot (t + 1) % 4 -> tile 0 must
  // reproduce the fault population tile 1 had under the identity map.
  b.set_tile_phys_map({1, 2, 3, 0});
  b.refresh_tile(0, w, opts);
  const auto& want = a.array(1).fault_map().stuck_faults();
  const auto& got = b.array(0).fault_map().stuck_faults();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].cell, want[i].cell);
}

// ---- Engine: shared fixtures ------------------------------------------------

std::unique_ptr<nn::Sequential> make_tiny_net(std::uint64_t seed) {
  auto net = std::make_unique<nn::Sequential>();
  Rng rng(seed);
  net->emplace<nn::Dense>(12, 8, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Dense>(8, 4, rng);
  return net;
}

core::AcceleratorConfig accel_config() {
  core::AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  return cfg;
}

ProgramOptions maint_opts(std::uint64_t seed) {
  ProgramOptions opts;
  opts.faults.transient_flip_rate = 1e-3;
  opts.faults.seed = seed;
  opts.write_verify = true;
  return opts;
}

MaintenanceConfig engine_cfg(Policy p) {
  MaintenanceConfig cfg;
  cfg.policy = p;
  cfg.seconds_per_us = 1.0;    // 1 virtual µs ages the arrays 1 second
  cfg.drift_epoch_us = 100;
  cfg.refresh_age_s = 500.0;
  cfg.scrub_interval_s = 300.0;
  cfg.wear_rotate_delta = 0;   // rotation off unless a test wants it
  return cfg;
}

// ---- Engine behavior --------------------------------------------------------

TEST_F(MaintTest, DriftRefreshTriggersAndResetsTileClocks) {
  auto net = make_tiny_net(70);
  core::CrossbarExecutor exec(*net, accel_config(), maint_opts(71));
  MaintenanceEngine engine(engine_cfg(Policy::kIdleOnly));
  engine.manage(exec, device::RetentionParams{0.02, 1.0}, maint_opts(71));

  engine.advance_time(600);  // 600 device-seconds: all tiles pass 500 s
  EXPECT_GT(engine.pending_actions(), 0u);
  const double aged = exec.health().seconds_since_program;
  EXPECT_GT(aged, 500.0);
  EXPECT_LT(exec.health().cumulative_drift, 1.0);

  engine.run_pending();
  const auto stats = engine.stats();
  EXPECT_GT(stats.refreshes, 0u);
  EXPECT_EQ(stats.deferred, 0u);
  EXPECT_GT(stats.busy_us, 0u);
  // Every tile refreshed: the oldest age fell back below the trigger.
  EXPECT_LT(exec.health().seconds_since_program, 500.0);
  EXPECT_GT(exec.health().cumulative_drift,
            0.999);  // refreshed tiles carry no drift
}

TEST_F(MaintTest, ScrubDetectsInjectedFaultsAndRepairs) {
  auto net = make_tiny_net(72);
  // The tiny net has few cells; a high flip rate guarantees hits.
  ProgramOptions opts = maint_opts(73);
  opts.faults.transient_flip_rate = 0.02;
  core::CrossbarExecutor exec(*net, accel_config(), opts);
  std::vector<circuit::Crossbar::WeightBuffer> pristine;
  for (std::size_t g = 0; g < exec.num_grids(); ++g)
    for (std::size_t t = 0; t < exec.grid(g).num_arrays(); ++t)
      pristine.push_back(exec.grid(g).array(t).effective_weights());

  MaintenanceConfig cfg = engine_cfg(Policy::kIdleOnly);
  cfg.drift_refresh = false;  // isolate the scrubber
  MaintenanceEngine engine(cfg);
  engine.manage(exec, device::RetentionParams{0.0001, 1e12}, opts);

  ASSERT_GT(exec.inject_at(1), 0u);  // mid-run soft errors
  engine.advance_time(400);          // past one scrub interval
  EXPECT_GT(engine.stats().scrub_detected, 0u);
  EXPECT_GT(engine.pending_actions(), 0u);
  engine.run_pending();
  EXPECT_GT(engine.stats().scrub_repairs, 0u);

  // Repaired tiles are bit-identical to their pristine programming.
  std::size_t k = 0;
  for (std::size_t g = 0; g < exec.num_grids(); ++g)
    for (std::size_t t = 0; t < exec.grid(g).num_arrays(); ++t, ++k) {
      const auto& eff = exec.grid(g).array(t).effective_weights();
      for (std::size_t i = 0; i < eff.size(); ++i)
        EXPECT_EQ(eff[i], pristine[k][i]) << "grid " << g << " tile " << t;
    }
  // A second scan with no new faults stays quiet.
  const auto detected = engine.stats().scrub_detected;
  engine.advance_time(800);
  EXPECT_EQ(engine.stats().scrub_detected, detected);
}

TEST_F(MaintTest, WearLevelingRotatesAfterImbalancedRepairs) {
  // A multi-tile grid where scrub repairs land on a strict subset of tiles:
  // the repairs skew the write counts, the wear scan notices and rotates.
  nn::Sequential net;
  Rng rng(74);
  net.emplace<nn::Dense>(200, 144, rng);
  ProgramOptions opts = maint_opts(75);
  opts.faults.transient_flip_rate = 3e-6;
  core::CrossbarExecutor exec(net, accel_config(), opts);
  const std::size_t tiles = exec.grid(0).num_arrays();
  ASSERT_GE(tiles, 4u);

  MaintenanceConfig cfg = engine_cfg(Policy::kIdleOnly);
  cfg.drift_refresh = false;
  cfg.scrub_interval_s = 100.0;
  cfg.wear_rotate_delta = 1;
  MaintenanceEngine engine(cfg);
  engine.manage(exec, device::RetentionParams{0.0001, 1e12}, opts);

  ASSERT_GT(exec.inject_at(3), 0u);  // flips on a subset of tiles
  engine.advance_time(200);          // scrub detects and queues repairs
  engine.run_pending();
  ASSERT_GT(engine.stats().scrub_repairs, 0u);
  ASSERT_LT(engine.stats().scrub_repairs, tiles);  // strict subset
  EXPECT_GE(engine.wear(0, 0).imbalance_since_rotation(), 1u);

  engine.advance_time(400);  // the wear scan sees the imbalance
  engine.run_pending();
  EXPECT_EQ(engine.stats().rotations, 1u);
  EXPECT_EQ(engine.stats().migrated_tiles, tiles);
  // The grid now runs the tracker's rotated logical->physical map, the
  // migration rebalanced writes, and no rotation is pending.
  EXPECT_EQ(exec.grid(0).tile_phys_map(), engine.wear(0, 0).mapping());
  EXPECT_EQ(engine.wear(0, 0).physical_of(0), 1u);
  EXPECT_EQ(engine.wear(0, 0).imbalance_since_rotation(), 0u);
  EXPECT_EQ(engine.pending_actions(), 0u);
}

TEST_F(MaintTest, IdleOnlyNeverDelaysDemand) {
  auto net = make_tiny_net(76);
  core::CrossbarExecutor exec(*net, accel_config(), maint_opts(77));
  MaintenanceEngine engine(engine_cfg(Policy::kIdleOnly));
  engine.manage(exec, device::RetentionParams{0.02, 1.0}, maint_opts(77));

  engine.advance_time(600);
  ASSERT_GT(engine.pending_actions(), 0u);
  // Tight launch right at now: no gap, nothing runs, no delay.
  EXPECT_EQ(engine.on_demand(600, 600), 600u);
  // Wide gap: maintenance progresses inside it, still no delay.
  const std::uint64_t adj = engine.on_demand(600, 5000);
  EXPECT_EQ(adj, 5000u);
  EXPECT_GT(engine.stats().refreshes + engine.stats().scrub_repairs, 0u);
  EXPECT_EQ(engine.stats().demand_delay_us, 0u);
}

TEST_F(MaintTest, FixedSlotPushesLaunchOutOfReservedWindow) {
  auto net = make_tiny_net(78);
  core::CrossbarExecutor exec(*net, accel_config(), maint_opts(79));
  MaintenanceConfig cfg = engine_cfg(Policy::kFixedSlot);
  cfg.slot_period_us = 1000;
  cfg.slot_len_us = 200;
  MaintenanceEngine engine(cfg);
  engine.manage(exec, device::RetentionParams{0.02, 1.0}, maint_opts(79));

  engine.advance_time(2050);  // aged enough to queue refreshes
  ASSERT_GT(engine.pending_actions(), 0u);
  // 2050 lies inside the window [2000, 2200): the launch lands at 2200.
  const std::uint64_t adj = engine.on_demand(2050, 2050);
  EXPECT_EQ(adj, 2200u);
  EXPECT_GT(engine.stats().demand_delay_us, 0u);

  // A launch outside any window (and an empty queue) is untouched.
  engine.run_pending();
  const std::uint64_t before = engine.stats().demand_delay_us;
  EXPECT_EQ(engine.on_demand(2400, 2500), 2500u);
  EXPECT_EQ(engine.stats().demand_delay_us, before);
}

TEST_F(MaintTest, UrgencyPreemptsOnExpiredDeadlines) {
  auto net = make_tiny_net(80);
  core::CrossbarExecutor exec(*net, accel_config(), maint_opts(81));
  MaintenanceConfig cfg = engine_cfg(Policy::kUrgency);
  cfg.urgency_deadline_us = 50;
  MaintenanceEngine engine(cfg);
  engine.manage(exec, device::RetentionParams{0.02, 1.0}, maint_opts(81));

  engine.advance_time(600);
  ASSERT_GT(engine.pending_actions(), 0u);
  // Deadlines (due + 50) are long expired at launch 700: repairs run
  // immediately and the demand launch is delayed past them.
  const std::uint64_t adj = engine.on_demand(700, 700);
  EXPECT_GT(adj, 700u);
  EXPECT_GT(engine.stats().demand_delay_us, 0u);
  EXPECT_EQ(engine.pending_actions(), 0u);
}

// ---- Engine under the serving loop ------------------------------------------

struct ServedRun {
  std::vector<serving::Outcome> outcomes;
  std::uint64_t digest = 0;
  maint::MaintenanceStats stats;
};

ServedRun serve_with_maintenance(Policy policy) {
  auto net = make_tiny_net(90);  // must outlive the server's executor
  serving::ServingConfig scfg;
  scfg.max_batch = 8;
  scfg.max_wait_us = 500;
  scfg.num_chips = 1;
  serving::Server server(scfg);
  server.add_tenant(*net, accel_config());

  MaintenanceConfig mcfg = engine_cfg(policy);
  mcfg.refresh_age_s = 2000.0;
  mcfg.scrub_interval_s = 1500.0;
  MaintenanceEngine engine(mcfg);
  engine.manage(server.tenant_executor(0),
                device::RetentionParams{0.02, 1.0}, maint_opts(91));
  server.attach_maintenance(0, &engine);

  serving::TrafficSpec spec;
  spec.tenants = 1;
  spec.duration_us = 20'000;
  spec.rate_rps = 800.0;
  spec.seed = 92;
  ServedRun run;
  run.outcomes = server.run_replay(serving::generate_trace(spec, Shape{12}));
  run.digest = engine.digest();
  run.stats = engine.stats();
  EXPECT_TRUE(server.accounting_conserved());
  return run;
}

TEST_F(MaintTest, ServingReplayWithMaintenanceIsThreadInvariant) {
  const ServedRun base = serve_with_maintenance(Policy::kUrgency);
  EXPECT_GT(base.stats.refreshes + base.stats.scrub_repairs +
                base.stats.deferred,
            0u);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    parallel::set_thread_count(threads);
    const ServedRun run = serve_with_maintenance(Policy::kUrgency);
    EXPECT_EQ(run.digest, base.digest) << threads << " threads";
    ASSERT_EQ(run.outcomes.size(), base.outcomes.size());
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
      EXPECT_EQ(run.outcomes[i].done_us, base.outcomes[i].done_us);
      EXPECT_EQ(run.outcomes[i].dispatch_us, base.outcomes[i].dispatch_us);
      for (std::size_t e = 0; e < run.outcomes[i].output.numel(); ++e)
        EXPECT_EQ(run.outcomes[i].output[e], base.outcomes[i].output[e]);
    }
  }
}

TEST_F(MaintTest, MaintenanceDelaysAreVisibleInOutcomes) {
  // Urgency with tiny deadlines under drift pressure must delay at least
  // one dispatch beyond its undelayed launch time.
  const ServedRun urgent = serve_with_maintenance(Policy::kUrgency);
  if (urgent.stats.demand_delay_us > 0) {
    std::uint64_t max_gap = 0;
    for (const auto& o : urgent.outcomes)
      if (o.status == serving::RequestStatus::kCompleted)
        max_gap = std::max(max_gap, o.dispatch_us - o.arrival_us);
    EXPECT_GT(max_gap, 0u);
  }
  SUCCEED();
}

// ---- Config parsing ---------------------------------------------------------

TEST_F(MaintTest, ConfigFromEnvParsesKnobs) {
  setenv("RERAMDL_MAINT_POLICY", "fixed_slot", 1);
  setenv("RERAMDL_MAINT_SECONDS_PER_US", "2.5", 1);
  setenv("RERAMDL_MAINT_SLOT_PERIOD_US", "4000", 1);
  setenv("RERAMDL_MAINT_SCRUB", "off", 1);
  const MaintenanceConfig cfg = MaintenanceConfig::from_env();
  EXPECT_EQ(cfg.policy, Policy::kFixedSlot);
  EXPECT_DOUBLE_EQ(cfg.seconds_per_us, 2.5);
  EXPECT_EQ(cfg.slot_period_us, 4000u);
  EXPECT_FALSE(cfg.scrub);
  EXPECT_TRUE(cfg.drift_refresh);
  unsetenv("RERAMDL_MAINT_POLICY");
  unsetenv("RERAMDL_MAINT_SECONDS_PER_US");
  unsetenv("RERAMDL_MAINT_SLOT_PERIOD_US");
  unsetenv("RERAMDL_MAINT_SCRUB");
  // An unrecognized policy string is rejected (one-time warning).
  setenv("RERAMDL_MAINT_POLICY", "sometimes", 1);
  EXPECT_EQ(MaintenanceConfig::from_env().policy, Policy::kIdleOnly);
  unsetenv("RERAMDL_MAINT_POLICY");
}

}  // namespace
}  // namespace reramdl
