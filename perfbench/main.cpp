// reramdl benchmark driver: runs one named workload through the public APIs
// of the simulator's layers and writes one JSON result file.
//
//   reramdl_bench --workload serve_lenet|serve_aging|train_regan|chip_vgg
//                 --seed N --seconds S --out result.json
//                 [--size full|tiny] [--trace] [--spans-out spans.json]
//
// Every run has the same shape: set up the workload several times (the
// median is setup_s), one untimed warm-up pass that also yields the modeled
// results and digests, then a timed phase that repeats the workload's
// operation for --seconds of wall time. All host timing is taken here,
// around public calls; no library code is instrumented for the benchmark.
// Between timed repetitions a fixed reference kernel (reference.hpp)
// measures the host's own speed, and host throughput is also reported per
// reference second.
//
// --trace alternates untraced and traced repetitions of the timed
// operation. Traced repetitions switch on the library's own trace spans and
// counters (RERAMDL_TRACE / RERAMDL_METRICS name the files they are written
// to) plus this driver's fine-grained spans, and feed the per-layer numbers;
// untraced ones give the reference rate for the observation overhead. The
// driver's own spans stay in memory and are written to --spans-out at exit.
//
// run.py builds this program, folds the library's trace spans into per-layer
// self times, checks digests against golden.json and prints the result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip_sim.hpp"
#include "arch/params.hpp"
#include "arch/placement.hpp"
#include "baseline/gpu_model.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/accelerator_config.hpp"
#include "core/comparison.hpp"
#include "core/functional.hpp"
#include "core/pipelayer.hpp"
#include "maint/engine.hpp"
#include "mapping/planner.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/gan.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "nn/transposed_conv2d.hpp"
#include "obs/obs.hpp"
#include "serving/server.hpp"
#include "serving/workload.hpp"
#include "workload/datasets.hpp"
#include "workload/model_zoo.hpp"
#include "reference.hpp"

namespace {

using namespace reramdl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// ---- Digests ----------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void mix(T v) {
    bytes(&v, sizeof(v));
  }
  void tensor(const Tensor& t) { bytes(t.data(), t.numel() * sizeof(float)); }
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- The driver's own spans -------------------------------------------------

// In-memory span log (name, start, end, parent, id). Active only in traced
// runs; written to --spans-out at exit.
class SpanLog {
 public:
  bool enabled = false;

  int open(std::string name, std::uint64_t id) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), obs::monotonic_ns(), 0, parent, id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = obs::monotonic_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    obs::JsonWriter w(os);
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("start_us", static_cast<double>(s.start_ns) * 1e-3);
      w.kv("end_us", static_cast<double>(s.end_ns) * 1e-3);
      w.kv("parent", s.parent);
      w.kv("id", s.id);
      w.end_object();
    }
    w.end_array();
    w.finish();
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns, end_ns;
    int parent;
    std::uint64_t id;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

// Wall timer that also records a span when the log is on.
class Timed {
 public:
  Timed(std::string name, std::uint64_t id = 0)
      : span_(g_spans.open(std::move(name), id)), t0_(Clock::now()) {}
  ~Timed() { stop(); }
  double stop() {
    if (!stopped_) {
      elapsed_ = seconds_since(t0_);
      g_spans.close(span_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  int span_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

// ---- Library observation switch ---------------------------------------------

// The library's spans and counters are on only inside traced repetitions.
struct LibObs {
  std::string trace_path;
  bool available() const { return !trace_path.empty(); }
  void set(bool on) const {
    if (!available()) return;
    obs::set_trace_path(on ? trace_path : std::string());
    obs::set_metrics_enabled(on);
  }
};

LibObs g_lib;

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// ---- Options and result -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 2018;
  double seconds = 10.0;
  bool tiny = false;
  bool trace = false;
  std::string out_path, spans_path;
};

struct Result {
  std::vector<double> setup_s;
  double host_ops_per_s = 0.0;
  // Host seconds of each untraced timed repetition, each doing ops_per_rep
  // operations; host_ops_per_s = ops_per_rep / median(op_s).
  std::vector<double> op_s;
  double ops_per_rep = 0.0;
  // host_ops_per_s and the median of setup_s in reference seconds (see
  // HostReference).
  double host_ops_per_ref_s = 0.0;
  double setup_ref_s = 0.0;
  double ref_kernel_s = 0.0;  // median wall time of one reference run
  std::size_t ref_runs = 0;
  std::string host_name, host_unit;  // the workload-specific rate name
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, bool> checks;
  std::map<std::string, std::string> digests;
  // Modeled results (deterministic for a seed and size).
  std::map<std::string, double> modeled;
  // Per-layer values (traced runs) and raw inputs for run.py's span fold.
  std::map<std::string, double> layer;
  std::map<std::string, double> fold;
};

// Host-speed reference. On a shared VM the host's speed drifts by up to 1.5x
// over tens of minutes, which no median within one run removes. The
// reference kernel drifts with it: across runs its time correlated 0.8–0.97
// with the workloads' repetition times. It runs after every setup repetition
// and once per kRefEveryS of untraced timed work (about 2% of the timed
// phase). One reference second is the time of kRefUnitRuns kernel runs, so
//   host_ops_per_ref_s = host_ops_per_s * median kernel time * kRefUnitRuns
//   setup_ref_s = median setup_s / (median kernel time * kRefUnitRuns).
constexpr double kRefEveryS = 0.1;
constexpr double kRefUnitRuns = 500.0;

struct HostReference {
  perfbench::ReferenceKernel kernel;
  std::vector<double> run_s;
  double owed_s = 0.0;

  void sample() { run_s.push_back(kernel.run()); }

  // Called after each untraced timed repetition of rep_s seconds.
  void after_rep(double rep_s) {
    owed_s += rep_s;
    while (owed_s >= kRefEveryS) {
      sample();
      owed_s -= kRefEveryS;
    }
  }
};

HostReference& host_reference() {
  static HostReference ref;
  return ref;
}

// Records one untraced timed repetition.
void record_rep(Result& r, double rep_s) {
  r.op_s.push_back(rep_s);
  host_reference().after_rep(rep_s);
}

// Traced runs alternate untraced and traced repetitions. Traced ones stop
// once the library has buffered enough events to keep the trace file small.
bool traced_rep(const Options& o, std::size_t rep) {
  return o.trace && g_lib.available() && rep % 2 == 1 &&
         obs::trace_event_count() < 300000;
}

// Shared bookkeeping for traced repetitions: wall time, call count, and the
// rates of traced vs untraced repetitions for obs.overhead_frac.
struct TraceAccount {
  double traced_wall_s = 0.0;
  std::uint64_t traced_calls = 0;
  std::vector<double> traced_rate, untraced_rate;

  void add(bool traced, double wall_s, double rate, std::uint64_t calls) {
    (traced ? traced_rate : untraced_rate).push_back(rate);
    if (traced) {
      traced_wall_s += wall_s;
      traced_calls += calls;
    }
  }
  void finish(Result& r) const {
    const std::uint64_t chunks = counter("pool.chunks");
    r.layer["pool.chunks_per_call"] =
        traced_calls ? static_cast<double>(chunks) / traced_calls : 0.0;
    const double u = median(untraced_rate), t = median(traced_rate);
    r.layer["obs.overhead_frac"] = u > 0.0 && t > 0.0 ? (u - t) / u : 0.0;
    const std::uint64_t hits = counter("plan.cache_hits");
    const std::uint64_t lookups = hits + counter("plan.cache_misses");
    r.layer["tensor.plan_hit_frac"] =
        lookups ? static_cast<double>(hits) / lookups : 0.0;
    r.fold["traced_calls"] = static_cast<double>(traced_calls);
    r.fold["matmul_flops"] = static_cast<double>(counter("ops.matmul.flops"));
  }
};

// The timed phase runs for --seconds of wall time, with at least one
// repetition (two in traced runs, so both kinds are measured).
bool keep_timing(std::size_t rep, Clock::time_point phase0, const Options& o) {
  return rep <= (o.trace ? 2u : 1u) || seconds_since(phase0) < o.seconds;
}

// Setup runs at least five times and until three seconds of setup have been
// measured (at most fifty times); setup_s is the median. `reset` drops the
// previous repetition's objects outside the timed window.
template <typename Reset, typename Build>
void repeat_setup(const Options& o, Result& r, Reset&& reset, Build&& build) {
  double total = 0.0;
  for (std::uint64_t k = 0;; ++k) {
    reset();
    Timed t("setup", k);
    build();
    const double dt = t.stop();
    r.setup_s.push_back(dt);
    host_reference().sample();
    total += dt;
    if (o.tiny || (k + 1 >= 5 && (total >= 3.0 || k + 1 >= 50))) break;
  }
}

// ---- Table I reference (core + baseline) ------------------------------------

void table1_reference(Result& r) {
  struct Row {
    nn::NetworkSpec net;
    std::size_t n, batch;
  };
  const std::vector<Row> rows{
      {workload::spec_mlp_mnist_a(), 6400, 64},
      {workload::spec_mlp_mnist_b(), 6400, 64},
      {workload::spec_mlp_mnist_c(), 6400, 64},
      {workload::spec_lenet5(), 6400, 64},
      {workload::spec_alexnet(), 640, 64},
      {workload::spec_vgg_a(), 640, 64},
      {workload::spec_vgg_d(), 640, 64},
  };
  core::AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  const baseline::GpuModel gpu(baseline::gtx1080());
  std::vector<core::Comparison> cmp;
  for (const Row& row : rows) {
    const core::PipeLayerAccelerator accel(row.net, cfg);
    cmp.push_back(core::compare(row.net.name,
                                accel.training_report(row.n, row.batch),
                                gpu.training_cost(row.net, row.n, row.batch)));
  }
  const core::ComparisonSummary s = core::summarize(cmp);
  r.layer["core.table1_speedup_x"] = s.geomean_speedup;
  r.layer["core.table1_energy_saving_x"] = s.geomean_energy_saving;
}

// ---- serve_lenet / serve_aging ----------------------------------------------

// The seed generates each workload's inputs: the request trace, the real
// images and the generator noise, and the placement search. The system
// under test is fixed: tenant weights, the trained reference model, fault
// maps and GAN initialization come from these constants.
constexpr std::uint64_t kModelSeed = 900;
constexpr std::uint64_t kFaultSeed = 0x11fe71e5ULL;

struct ServeSpec {
  bool aging = false;
  std::size_t tenants = 4;
  std::size_t chips = 2;
  serving::TrafficSpec traffic;
  // Aging only: flip showers every flip_every_us of replay time.
  std::uint64_t flip_every_us = 25'000;
};

ServeSpec serve_spec(bool aging, const Options& o) {
  ServeSpec s;
  s.aging = aging;
  s.traffic.tenants = s.tenants;
  // Offered load ~1.75 x 1000 rps per tenant, about a fifth of the modeled
  // capacity of a chip at max_batch 32 (service 150 + 50 b us): nothing is
  // refused, and bursts still fill batches.
  s.traffic.duration_us = o.tiny ? 20'000 : 250'000;
  s.traffic.rate_rps = 1000.0;
  s.traffic.burst_factor = 4.0;
  s.traffic.burst_period_us = o.tiny ? 10'000 : 50'000;
  s.traffic.burst_duty = 0.25;
  s.traffic.seed = o.seed;
  if (o.tiny) s.flip_every_us = 5'000;
  return s;
}

serving::ServingConfig serving_config(const ServeSpec& s) {
  serving::ServingConfig cfg;
  cfg.max_batch = 32;
  cfg.max_wait_us = 2000;
  cfg.queue_depth = 4096;
  cfg.num_chips = s.chips;
  return cfg;
}

core::AcceleratorConfig serve_accel(bool aging) {
  core::AcceleratorConfig cfg;
  cfg.chip = arch::pipelayer_chip();
  if (aging) cfg.spare_cols = 8;
  return cfg;
}

circuit::ProgramOptions aging_program_options() {
  circuit::ProgramOptions opts;
  opts.faults.stuck_at_off_rate = 5e-4;
  opts.faults.stuck_at_on_rate = 5e-4;
  // Sparse enough that a shower misses some tiles of a grid: scrub repairs
  // then land unevenly, tiles' write counts drift apart and wear-leveling
  // rotations fire (at dense rates every tile is repaired alike and the
  // rotation path never runs).
  opts.faults.transient_flip_rate = 5e-5;
  opts.faults.seed = kFaultSeed;
  opts.write_verify = true;
  opts.defect_threshold = 1.5;
  opts.degrade = circuit::DegradePolicy::kClamp;
  return opts;
}

// Compressed lifetime: one virtual us ages the arrays by seconds_per_us
// device seconds, so a replay spans ~2.5e5 device seconds (1e5 at tiny
// size) and every tile is refreshed and scrubbed at least once.
maint::MaintenanceConfig aging_engine_config(const Options& o) {
  maint::MaintenanceConfig cfg;
  cfg.policy = maint::Policy::kUrgency;
  cfg.seconds_per_us = o.tiny ? 5.0 : 1.0;
  cfg.drift_epoch_us = 1000;
  cfg.refresh_age_s = 5e4;
  cfg.scrub_interval_s = 5e4;
  cfg.wear_rotate_delta = 1;
  cfg.program_ns_per_cell = 0.05;
  cfg.readback_ns_per_cell = 0.005;
  cfg.urgency_deadline_us = 300;
  return cfg;
}

const device::RetentionParams kRetention{0.25, 1e5};

// Inputs fixed per setup: the trace, and for aging the trained weights and
// a held-out set.
struct ServeInputs {
  std::vector<serving::Request> trace;
  std::vector<Tensor> weights;  // aging: trained LeNet parameters
  workload::Dataset heldout;
};

ServeInputs serve_inputs(const ServeSpec& s) {
  ServeInputs in;
  in.trace = serving::generate_trace(s.traffic, Shape{1, 28, 28});
  if (!s.aging) return in;
  Timed t("setup.train_reference");
  Rng rng(kModelSeed + 300);
  nn::Sequential net = workload::make_lenet_small(rng);
  nn::Sgd opt(net.params(), 0.05f, 0.9f);
  nn::Trainer trainer(net, opt);
  workload::DatasetConfig dc;
  dc.noise = 0.6f;
  Rng data_rng(kModelSeed + 301);
  const auto train = workload::make_classification(256, dc, data_rng);
  in.heldout = workload::make_classification(256, dc, data_rng);
  for (int e = 0; e < 3; ++e)
    trainer.train_epoch(train.images, train.labels, 16, rng);
  for (const nn::ParamRef& p : net.params()) in.weights.push_back(*p.value);
  return in;
}

// One server with its tenants (and for aging, its engines). Rebuilt for every
// aging replay so each timed lifetime starts from the same fresh state.
struct ServeRig {
  std::vector<std::unique_ptr<nn::Sequential>> nets;
  std::unique_ptr<serving::Server> server;
  std::vector<std::unique_ptr<maint::MaintenanceEngine>> engines;
  std::vector<double> add_tenant_s;
  double program_s = 0.0;
  std::uint64_t program_cells = 0;
};

std::unique_ptr<ServeRig> build_rig(const ServeSpec& s, const ServeInputs& in,
                                    const Options& o) {
  auto rig = std::make_unique<ServeRig>();
  rig->server = std::make_unique<serving::Server>(serving_config(s));
  const core::AcceleratorConfig accel = serve_accel(s.aging);
  for (std::size_t t = 0; t < s.tenants; ++t) {
    Rng rng(kModelSeed + t);
    rig->nets.push_back(
        std::make_unique<nn::Sequential>(workload::make_lenet_small(rng)));
    if (s.aging) {
      const auto params = rig->nets.back()->params();
      for (std::size_t i = 0; i < params.size(); ++i)
        *params[i].value = in.weights[i];
    }
    Timed timer("core.add_tenant", t);
    rig->server->add_tenant(*rig->nets.back(), accel);
    rig->add_tenant_s.push_back(timer.stop());
    // serve_lenet's only programming is the fault-free pass in add_tenant.
    if (!s.aging) {
      rig->program_s += rig->add_tenant_s.back();
      rig->program_cells +=
          rig->server->tenant_executor(t).aggregate_stats().programmed_cells;
    }
  }
  if (!s.aging) return rig;
  const circuit::ProgramOptions opts = aging_program_options();
  for (std::size_t t = 0; t < s.tenants; ++t) {
    core::CrossbarExecutor& exec = rig->server->tenant_executor(t);
    const std::uint64_t before = exec.aggregate_stats().programmed_cells;
    Timed timer("circuit.reprogram", t);
    exec.reprogram(opts);
    rig->program_s += timer.stop();
    rig->program_cells += exec.aggregate_stats().programmed_cells - before;
  }
  for (std::size_t c = 0; c < s.chips; ++c) {
    auto engine = std::make_unique<maint::MaintenanceEngine>(
        aging_engine_config(o));
    for (std::size_t t = c; t < s.tenants; t += s.chips)
      engine->manage(rig->server->tenant_executor(t), kRetention, opts);
    rig->server->attach_maintenance(c, engine.get());
    rig->engines.push_back(std::move(engine));
  }
  return rig;
}

// Host cost of the maintenance write path: refreshes every tile of a
// scratch executor programmed like the tenants, ns per cell pulse.
double refresh_ns_per_cell(const ServeInputs& in) {
  Rng rng(kModelSeed);
  nn::Sequential net = workload::make_lenet_small(rng);
  const auto params = net.params();
  for (std::size_t i = 0; i < params.size(); ++i)
    *params[i].value = in.weights[i];
  const circuit::ProgramOptions opts = aging_program_options();
  core::CrossbarExecutor exec(net, serve_accel(true), opts);
  std::uint64_t cells = 0;
  Timed t("circuit.refresh_probe");
  for (std::size_t l = 0; l < exec.num_grids(); ++l)
    for (std::size_t tile = 0; tile < exec.grid(l).num_arrays(); ++tile)
      cells += exec.refresh_tile(l, tile, opts);
  const double dt = t.stop();
  return cells ? dt * 1e9 / static_cast<double>(cells) : 0.0;
}

double heldout_accuracy(ServeRig& rig, const workload::Dataset& heldout) {
  double sum = 0.0;
  for (auto& net : rig.nets) {
    nn::Sgd opt(net->params(), 0.0f);
    nn::Trainer eval(*net, opt);
    sum += eval.evaluate(heldout.images, heldout.labels, 64).accuracy;
  }
  return sum / static_cast<double>(rig.nets.size());
}

struct ReplayResult {
  double wall_s = 0.0;
  std::uint64_t submitted = 0, completed = 0, refused = 0, batches = 0;
  bool conserved = false;
  std::uint64_t digest = 0;
  std::vector<serving::Outcome> outcomes;
  std::vector<double> launch_s;  // traced: advance calls that launched
};

std::uint64_t chip_free_sum(const serving::Server& server, std::size_t chips) {
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < chips; ++c) sum += server.chip_free_us(c);
  return sum;
}

std::uint64_t batches_sum(const serving::Server& server) {
  std::uint64_t sum = 0;
  for (std::size_t t = 0; t < server.num_tenants(); ++t)
    sum += server.tenant_counters(t).batches;
  return sum;
}

// Replays `trace` shifted by `offset_us` (the rig's chips are idle by then),
// so every replay on the same rig sees identical relative timing. The digest
// covers outcome records (stamps relative to the offset) and output bytes,
// plus the maintenance engines' action logs.
ReplayResult replay(ServeRig& rig, const ServeSpec& s,
                    std::vector<serving::Request> trace,
                    std::uint64_t offset_us, bool traced, std::uint64_t rep) {
  serving::Server& server = *rig.server;
  for (auto& r : trace) r.arrival_us += offset_us;
  const std::uint64_t batches0 = batches_sum(server);
  ReplayResult res;
  res.submitted = trace.size();
  std::uint64_t next_flip = 1;
  Timed wall("serving.replay", rep);
  for (auto& r : trace) {
    if (s.aging) {
      while (offset_us + next_flip * s.flip_every_us <= r.arrival_us) {
        Timed t("circuit.inject_at", next_flip);
        for (std::size_t i = 0; i < s.tenants; ++i)
          server.tenant_executor(i).inject_at(next_flip);
        ++next_flip;
      }
    }
    if (traced) {
      const std::uint64_t before = chip_free_sum(server, s.chips);
      Timed t("serving.advance", r.id);
      server.advance(r.arrival_us);
      const double dt = t.stop();
      if (chip_free_sum(server, s.chips) != before) res.launch_s.push_back(dt);
    } else {
      server.advance(r.arrival_us);
    }
    server.submit(std::move(r));
  }
  server.drain();
  res.wall_s = wall.stop();

  res.outcomes = server.take_outcomes();
  std::sort(res.outcomes.begin(), res.outcomes.end(),
            [](const serving::Outcome& a, const serving::Outcome& b) {
              return a.id < b.id;
            });
  res.batches = batches_sum(server) - batches0;
  res.conserved = server.accounting_conserved();
  Fnv h;
  for (auto& o : res.outcomes) {
    if (o.status == serving::RequestStatus::kCompleted) ++res.completed;
    else ++res.refused;
    h.mix(o.id);
    h.mix(static_cast<std::uint64_t>(o.tenant));
    h.mix(static_cast<std::uint64_t>(o.status));
    h.mix(o.arrival_us - offset_us);
    h.mix(o.status == serving::RequestStatus::kCompleted
              ? o.dispatch_us - offset_us
              : 0);
    h.mix(o.done_us - offset_us);
    h.mix(static_cast<std::uint64_t>(o.batch_size));
    if (o.output.numel() > 0) h.tensor(o.output);
  }
  for (const auto& e : rig.engines) h.mix(e->digest());
  res.digest = h.h;
  for (std::size_t t = 0; t < server.num_tenants(); ++t)
    res.conserved = res.conserved && server.tenant_counters(t).queued == 0;
  res.conserved = res.conserved && res.outcomes.size() == res.submitted;
  return res;
}

std::uint64_t replay_end_us(const ReplayResult& r) {
  std::uint64_t end = 0;
  for (const auto& o : r.outcomes) end = std::max(end, o.done_us);
  return end;
}

void run_serve(bool aging, const Options& o, Result& r) {
  const ServeSpec s = serve_spec(aging, o);
  r.host_name = "serve_rps";
  r.host_unit = "req/s";

  // Setup, repeated; the last repetition's objects are used below.
  ServeInputs in;
  std::unique_ptr<ServeRig> rig;
  repeat_setup(
      o, r,
      [&] {
        rig.reset();
        in = ServeInputs();
      },
      [&] {
        in = serve_inputs(s);
        rig = build_rig(s, in, o);
      });
  r.layer["core.add_tenant_ms"] = median(rig->add_tenant_s) * 1e3;
  r.layer["circuit.program_ns_per_cell"] =
      rig->program_cells ? rig->program_s * 1e9 / rig->program_cells : 0.0;
  if (aging) r.layer["maint.refresh_ns_per_cell"] = refresh_ns_per_cell(in);

  // Warm-up: one full batch per tenant, so scratch buffers reach their
  // max_batch size whatever burst shape the trace has, then the untimed
  // first replay, which also yields the modeled results.
  const double fresh_acc = aging ? heldout_accuracy(*rig, in.heldout) : 0.0;
  ReplayResult warm;
  {
    Timed t("warmup");
    Rng rng(kModelSeed + 400);
    const Tensor full = Tensor::uniform(
        Shape{serving_config(s).max_batch, 1, 28, 28}, rng, 0.0f, 1.0f);
    for (auto& net : rig->nets) net->forward(full, /*train=*/false);
    warm = replay(*rig, s, in.trace, 0, false, 0);
  }
  const std::uint64_t reference = warm.digest;
  r.digests["replay"] = hex(reference);
  r.checks["accounting_conserved"] = warm.conserved;
  r.checks["nothing_refused"] = warm.refused == 0;
  r.attempted += warm.submitted;
  if (!warm.conserved || warm.refused > 0) r.failed += warm.submitted;

  {
    std::vector<double> e2e, queue;
    for (const auto& out : warm.outcomes) {
      if (out.status == serving::RequestStatus::kCompleted) {
        e2e.push_back(static_cast<double>(out.e2e_us()));
        queue.push_back(static_cast<double>(out.queue_us()));
      } else {
        e2e.push_back(std::numeric_limits<double>::infinity());
      }
    }
    const double makespan_us = static_cast<double>(replay_end_us(warm));
    r.modeled["virt_rps"] =
        makespan_us > 0.0 ? warm.completed / (makespan_us * 1e-6) : 0.0;
    r.modeled["virt_e2e_p99_us"] = quantile(e2e, 0.99);
    r.layer["serving.queue_us_p50"] = quantile(queue, 0.50);
    r.layer["serving.queue_us_p99"] = quantile(queue, 0.99);
    r.layer["serving.batch_fill"] =
        warm.batches ? static_cast<double>(warm.completed) /
                           (static_cast<double>(warm.batches) * 32.0)
                     : 0.0;
  }
  if (aging) {
    const double final_acc = heldout_accuracy(*rig, in.heldout);
    r.modeled["retained_acc"] = fresh_acc > 0.0 ? final_acc / fresh_acc : 0.0;
    r.modeled["fresh_acc"] = fresh_acc;
    // The tenants must carry a model that learned (10 classes: chance 0.1),
    // or retained accuracy says nothing.
    r.checks["reference_model_trained"] = fresh_acc >= 0.5;
    if (fresh_acc < 0.5) r.failed += warm.submitted;
    maint::MaintenanceStats st;
    Fnv h;
    for (const auto& e : rig->engines) {
      const maint::MaintenanceStats x = e->stats();
      st.refreshes += x.refreshes;
      st.scrub_repairs += x.scrub_repairs;
      st.rotations += x.rotations;
      st.cells_programmed += x.cells_programmed;
      st.busy_us += x.busy_us;
      st.demand_delay_us += x.demand_delay_us;
      st.deadline_misses += x.deadline_misses;
      h.mix(e->digest());
    }
    r.digests["maint_actions"] = hex(h.h);
    r.layer["maint.refreshes"] = static_cast<double>(st.refreshes);
    r.layer["maint.scrub_repairs"] = static_cast<double>(st.scrub_repairs);
    r.layer["maint.rotations"] = static_cast<double>(st.rotations);
    r.layer["maint.cells_programmed"] =
        static_cast<double>(st.cells_programmed);
    r.layer["maint.busy_us"] = static_cast<double>(st.busy_us);
    r.layer["maint.demand_delay_us"] = static_cast<double>(st.demand_delay_us);
    r.layer["maint.deadline_misses"] = static_cast<double>(st.deadline_misses);
    // Every maintenance task must run: refresh, scrub and the wear-leveling
    // rotation with its migration reprogramming.
    const bool all_tasks =
        st.refreshes > 0 && st.scrub_repairs > 0 && st.rotations > 0;
    r.checks["maintenance_ran"] = all_tasks;
    if (!all_tasks) r.failed += warm.submitted;
  }

  // Timed phase. serve_lenet replays on the same server, shifted past the
  // previous replay; serve_aging rebuilds its rig (untimed) so every
  // lifetime starts fresh.
  TraceAccount acct;
  std::vector<double> launch_s;
  std::uint64_t offset = replay_end_us(warm) + 1'000'000;
  r.checks["replays_match_warmup"] = true;
  const auto phase0 = Clock::now();
  for (std::size_t rep = 1; keep_timing(rep, phase0, o); ++rep) {
    if (aging) {
      rig.reset();
      rig = build_rig(s, in, o);
      offset = 0;
    }
    std::vector<serving::Request> trace = in.trace;  // untimed copy
    const bool traced = traced_rep(o, rep);
    g_lib.set(traced);
    ReplayResult res = replay(*rig, s, std::move(trace), offset, traced, rep);
    g_lib.set(false);
    offset = replay_end_us(res) + 1'000'000;

    const bool ok = res.digest == reference && res.conserved &&
                    res.refused == 0;
    r.attempted += res.submitted;
    if (!ok) r.failed += res.submitted;
    r.checks["replays_match_warmup"] = r.checks["replays_match_warmup"] && ok;
    if (!traced) record_rep(r, res.wall_s);
    r.ops_per_rep = static_cast<double>(res.completed);
    if (o.trace)
      acct.add(traced, res.wall_s, res.completed / res.wall_s, res.batches);
    launch_s.insert(launch_s.end(), res.launch_s.begin(), res.launch_s.end());
  }
  r.host_ops_per_s = r.ops_per_rep / median(r.op_s);

  if (o.trace) {
    acct.finish(r);
    r.layer["serving.launch_ms_p50"] = quantile(launch_s, 0.50) * 1e3;
    r.layer["serving.launch_ms_p99"] = quantile(launch_s, 0.99) * 1e3;
    r.layer["serving.launch_share"] =
        acct.traced_wall_s > 0.0
            ? std::accumulate(launch_s.begin(), launch_s.end(), 0.0) /
                  acct.traced_wall_s
            : 0.0;
    const std::uint64_t rows = counter("xbar.batch_rows");
    const std::uint64_t calls = counter("xbar.batch_mvms");
    r.layer["circuit.rows_per_call"] =
        calls ? static_cast<double>(rows) / calls : 0.0;
    const std::uint64_t sparse = counter("sparsity.sparse_calls");
    const std::uint64_t dense = counter("sparsity.dense_calls");
    r.layer["circuit.sparse_call_frac"] =
        sparse + dense ? static_cast<double>(sparse) / (sparse + dense) : 0.0;
    if (aging) {
      const double replay_s = median(r.op_s);
      r.layer["maint.program_share"] =
          replay_s > 0.0 ? r.layer["maint.cells_programmed"] *
                               r.layer["maint.refresh_ns_per_cell"] * 1e-9 /
                               replay_s
                         : 0.0;
    }
  }
}

// ---- train_regan ------------------------------------------------------------

// Benchmark-side wrapper over the virtual Layer interface: runs the zoo layer
// unchanged and accumulates its forward/backward wall time while on.
class TimedLayer : public nn::Layer {
 public:
  TimedLayer(nn::Layer& inner, std::string label, bool weighted)
      : inner_(inner), label_(std::move(label)), weighted_(weighted) {}

  Tensor forward(const Tensor& x, bool train) override {
    if (!on) return inner_.forward(x, train);
    Timed t(label_ + ".fwd", step);
    Tensor y = inner_.forward(x, train);
    fwd_s += t.stop();
    return y;
  }
  Tensor backward(const Tensor& g) override {
    if (!on) return inner_.backward(g);
    Timed t(label_ + ".bwd", step);
    Tensor y = inner_.backward(g);
    bwd_s += t.stop();
    return y;
  }
  std::vector<nn::ParamRef> params() override { return inner_.params(); }
  std::string name() const override { return inner_.name(); }
  nn::LayerSpec spec(std::size_t c, std::size_t h,
                     std::size_t w) const override {
    return inner_.spec(c, h, w);
  }

  const std::string& label() const { return label_; }
  bool weighted() const { return weighted_; }

  bool on = false;
  std::uint64_t step = 0;
  double fwd_s = 0.0, bwd_s = 0.0;

 private:
  nn::Layer& inner_;
  std::string label_;
  bool weighted_;
};

class TimedOptimizer : public nn::Optimizer {
 public:
  explicit TimedOptimizer(nn::Optimizer& inner, std::vector<nn::ParamRef> p)
      : nn::Optimizer(std::move(p)), inner_(inner) {}
  void step() override {
    if (!on) return inner_.step();
    Timed t("nn.optimizer.step", step_id);
    inner_.step();
    total_s += t.stop();
  }
  bool on = false;
  std::uint64_t step_id = 0;
  double total_s = 0.0;

 private:
  nn::Optimizer& inner_;
};

// Wraps every layer of `zoo` (which must outlive the result); weighted
// layers (dense, conv, transposed conv) are labelled nn.<tag>.l<i>.
nn::Sequential wrap(nn::Sequential& zoo, const std::string& tag,
                    std::vector<TimedLayer*>& out) {
  nn::Sequential net;
  std::size_t weighted = 0;
  for (std::size_t i = 0; i < zoo.num_layers(); ++i) {
    nn::Layer& l = zoo.layer(i);
    const bool w = dynamic_cast<nn::Dense*>(&l) != nullptr ||
                   dynamic_cast<nn::Conv2D*>(&l) != nullptr ||
                   dynamic_cast<nn::TransposedConv2D*>(&l) != nullptr;
    const std::string label =
        w ? "nn." + tag + ".l" + std::to_string(weighted++)
          : "nn." + tag + ".aux" + std::to_string(i);
    out.push_back(&net.emplace<TimedLayer>(l, label, w));
  }
  return net;
}

struct GanRig {
  nn::Sequential g_zoo, d_zoo, g, d;
  std::unique_ptr<nn::Adam> adam_g, adam_d;
  std::unique_ptr<TimedOptimizer> opt_g, opt_d;
  std::unique_ptr<nn::GanTrainer> trainer;
  std::vector<TimedLayer*> layers;
  Tensor real;  // [N, 1, 28, 28]
  Rng rng{0};
  std::size_t batch = 32, cursor = 0;
};

std::unique_ptr<GanRig> build_gan(const Options& o) {
  auto rig = std::make_unique<GanRig>();
  constexpr std::size_t kLatent = 32;
  Rng init(kModelSeed + 200);
  rig->g_zoo = workload::make_dcgan_g_mnist(init, kLatent);
  rig->d_zoo = workload::make_dcgan_d_mnist(init);
  rig->g = wrap(rig->g_zoo, "g", rig->layers);
  rig->d = wrap(rig->d_zoo, "d", rig->layers);
  rig->adam_g = std::make_unique<nn::Adam>(rig->g.params(), 2e-3f, 0.5f);
  rig->adam_d = std::make_unique<nn::Adam>(rig->d.params(), 2e-3f, 0.5f);
  rig->opt_g = std::make_unique<TimedOptimizer>(*rig->adam_g, rig->g.params());
  rig->opt_d = std::make_unique<TimedOptimizer>(*rig->adam_d, rig->d.params());
  rig->trainer = std::make_unique<nn::GanTrainer>(
      rig->g, rig->d, *rig->opt_g, *rig->opt_d, kLatent,
      /*computation_sharing=*/true);
  rig->batch = o.tiny ? 8 : 32;
  Rng data(o.seed * 17 + 4);
  rig->real = workload::make_gan_images(o.tiny ? 32 : 512, 1, 28, data);
  rig->rng = Rng(o.seed * 17 + 5);
  return rig;
}

// Next real batch, cycling through the image set in order.
Tensor next_batch(GanRig& rig) {
  const std::size_t n = rig.real.shape()[0];
  const std::size_t elems = rig.real.numel() / n;
  Tensor x(Shape{rig.batch, 1, 28, 28});
  for (std::size_t i = 0; i < rig.batch; ++i) {
    const std::size_t src = (rig.cursor + i) % n;
    std::memcpy(x.data() + i * elems, rig.real.data() + src * elems,
                elems * sizeof(float));
  }
  rig.cursor = (rig.cursor + rig.batch) % n;
  return x;
}

bool finite(const nn::GanStepStats& s) {
  return std::isfinite(s.d_loss_real) && std::isfinite(s.d_loss_fake) &&
         std::isfinite(s.g_loss);
}

void run_train_regan(const Options& o, Result& r) {
  r.host_name = "train_samples_per_s";
  r.host_unit = "samples/s";
  std::unique_ptr<GanRig> rig;
  repeat_setup(o, r, [&] { rig.reset(); }, [&] { rig = build_gan(o); });

  // Warm-up: a fixed number of steps from the seeded initial state; the
  // parameters after them are the deterministic witness.
  const std::size_t warm_steps = o.tiny ? 2 : 3;
  bool warm_ok = true;
  {
    Timed t("warmup");
    for (std::size_t i = 0; i < warm_steps; ++i) {
      const Tensor x = next_batch(*rig);
      warm_ok = finite(rig->trainer->step(x, rig->rng)) && warm_ok;
    }
  }
  Fnv h;
  for (auto& p : rig->g.params()) h.tensor(*p.value);
  for (auto& p : rig->d.params()) h.tensor(*p.value);
  r.digests["params"] = hex(h.h);
  r.attempted += warm_steps;
  if (!warm_ok) r.failed += warm_steps;
  r.checks["losses_finite"] = warm_ok;

  TraceAccount acct;
  const auto phase0 = Clock::now();
  for (std::size_t rep = 1; keep_timing(rep, phase0, o); ++rep) {
    const Tensor x = next_batch(*rig);
    const bool traced = traced_rep(o, rep);
    g_lib.set(traced);
    for (TimedLayer* l : rig->layers) {
      l->on = traced;
      l->step = rep;
    }
    rig->opt_g->on = rig->opt_d->on = traced;
    rig->opt_g->step_id = rig->opt_d->step_id = rep;
    Timed t("nn.gan_step", rep);
    const nn::GanStepStats st = rig->trainer->step(x, rig->rng);
    const double dt = t.stop();
    g_lib.set(false);
    const bool ok = finite(st);
    r.checks["losses_finite"] = r.checks["losses_finite"] && ok;
    ++r.attempted;
    if (!ok) ++r.failed;
    if (!traced) record_rep(r, dt);
    if (o.trace) acct.add(traced, dt, rig->batch / dt, 1);
  }
  r.ops_per_rep = static_cast<double>(rig->batch);
  r.host_ops_per_s = r.ops_per_rep / median(r.op_s);

  if (o.trace) {
    acct.finish(r);
    const double steps = std::max<double>(1.0, acct.traced_calls);
    for (const TimedLayer* l : rig->layers) {
      if (!l->weighted()) continue;
      r.layer[l->label() + ".fwd_ms"] = l->fwd_s * 1e3 / steps;
      r.layer[l->label() + ".bwd_ms"] = l->bwd_s * 1e3 / steps;
    }
    r.layer["nn.optimizer_ms"] =
        (rig->opt_g->total_s + rig->opt_d->total_s) * 1e3 / steps;
  }
}

// ---- chip_vgg ---------------------------------------------------------------

struct ChipRig {
  arch::ChipConfig chip;
  mapping::NetworkMapping mapping;
  arch::NocParams noc_params;
  arch::Placement placement;
  std::unique_ptr<arch::ChipSimulator> sim;
  double place_s = 0.0;
};

std::unique_ptr<ChipRig> build_chip(const Options& o) {
  auto rig = std::make_unique<ChipRig>();
  rig->chip = arch::pipelayer_chip();
  const nn::NetworkSpec net = workload::spec_vgg_d();
  {
    Timed t("mapping.plan_under_budget");
    rig->mapping = mapping::plan_under_budget(
        net, {rig->chip.array_rows, rig->chip.array_cols},
        rig->chip.total_compute_arrays());
  }
  rig->noc_params.contention = true;
  rig->noc_params.smart_max_hops = 8;
  const arch::MeshNoc noc =
      arch::make_mesh_for_banks(rig->chip.banks, rig->noc_params);
  arch::PlacementSearchOptions search;
  search.seed = o.seed;
  if (o.tiny) search.iterations = 200;
  Timed t("arch.place_optimized");
  rig->placement = arch::place_optimized(rig->mapping, rig->chip, noc, search);
  rig->place_s = t.stop();
  rig->sim = std::make_unique<arch::ChipSimulator>(
      rig->chip, rig->mapping, rig->placement, rig->noc_params);
  return rig;
}

std::uint64_t report_digest(const arch::ChipRunReport& rep) {
  Fnv h;
  h.mix(static_cast<std::uint64_t>(rep.banks_used));
  h.mix(static_cast<std::uint64_t>(rep.instructions));
  h.mix(rep.critical_bank_ns);
  h.mix(rep.total_bank_ns);
  h.mix(rep.noc_ns);
  h.mix(rep.maint_ns);
  for (const auto& [name, pj] : rep.energy.breakdown()) {
    h.bytes(name.data(), name.size());
    h.mix(pj);
  }
  return h.h;
}

bool energy_sums(const arch::ChipRunReport& rep) {
  double sum = 0.0;
  for (const auto& [name, pj] : rep.energy.breakdown()) sum += pj;
  const double total = rep.energy.total_pj();
  return total > 0.0 && std::fabs(sum - total) <= 1e-9 * total;
}

void run_chip_vgg(const Options& o, Result& r) {
  r.host_name = "chip_batches_per_s";
  r.host_unit = "calls/s";
  std::unique_ptr<ChipRig> rig;
  std::vector<double> place_s;
  repeat_setup(
      o, r, [&] { rig.reset(); },
      [&] {
        rig = build_chip(o);
        place_s.push_back(rig->place_s);
      });
  r.layer["arch.place_optimized_ms"] = median(place_s) * 1e3;

  // One sweep: training batches of increasing size, then a forward pass.
  const std::vector<std::size_t> sweep =
      o.tiny ? std::vector<std::size_t>{2, 4}
             : std::vector<std::size_t>{4, 8, 16};
  const std::size_t calls_per_sweep = sweep.size() + 1;
  auto run_call = [&](std::size_t i) {
    return i < sweep.size() ? rig->sim->run_training_batch(sweep[i])
                            : rig->sim->run_forward_pass();
  };

  std::vector<std::uint64_t> reference;
  bool warm_ok = true;
  arch::ChipRunReport largest;
  {
    Timed t("warmup");
    for (std::size_t i = 0; i < calls_per_sweep; ++i) {
      const arch::ChipRunReport rep = run_call(i);
      reference.push_back(report_digest(rep));
      warm_ok = energy_sums(rep) && warm_ok;
      if (i + 1 == sweep.size()) largest = rep;
    }
  }
  Fnv all;
  for (std::uint64_t d : reference) all.mix(d);
  r.digests["reports"] = hex(all.h);
  r.attempted += calls_per_sweep;
  if (!warm_ok) r.failed += calls_per_sweep;
  r.checks["energy_breakdown_sums"] = warm_ok;
  r.checks["reports_match_warmup"] = true;

  r.modeled["chip_latency_us"] = largest.latency_ns() * 1e-3;
  r.modeled["chip_energy_uj"] = largest.energy.total_pj() * 1e-6;
  r.layer["arch.critical_bank_us"] = largest.critical_bank_ns * 1e-3;
  r.layer["arch.noc_us"] = largest.noc_ns * 1e-3;
  r.layer["arch.instructions"] = static_cast<double>(largest.instructions);
  r.layer["arch.banks_used"] = static_cast<double>(largest.banks_used);
  for (const auto& [name, pj] : largest.energy.breakdown())
    r.layer["arch.energy_uj." + name] = pj * 1e-6;
  {
    const arch::MeshNoc noc =
        arch::make_mesh_for_banks(rig->chip.banks, rig->noc_params);
    const arch::NocSimReport ns = noc.simulate(
        arch::sample_transfers(rig->placement, rig->mapping, sweep.back()));
    r.layer["arch.noc_queue_us"] = ns.queue_ns * 1e-3;
    r.layer["arch.max_link_util"] = ns.max_link_utilization();
  }

  TraceAccount acct;
  std::vector<double> train_s, fwd_s;
  const auto phase0 = Clock::now();
  for (std::size_t rep = 1; keep_timing(rep, phase0, o); ++rep) {
    const bool traced = traced_rep(o, rep);
    g_lib.set(traced);
    Timed sweep_t("arch.sweep", rep);
    for (std::size_t i = 0; i < calls_per_sweep; ++i) {
      Timed t(i < sweep.size() ? "arch.run_training_batch"
                               : "arch.run_forward_pass",
              rep);
      const arch::ChipRunReport rep_out = run_call(i);
      const double dt = t.stop();
      if (traced) (i < sweep.size() ? train_s : fwd_s).push_back(dt);
      const bool ok = report_digest(rep_out) == reference[i];
      r.checks["reports_match_warmup"] = r.checks["reports_match_warmup"] && ok;
      ++r.attempted;
      if (!ok) ++r.failed;
    }
    const double dt = sweep_t.stop();
    g_lib.set(false);
    if (!traced) record_rep(r, dt);
    if (o.trace) acct.add(traced, dt, calls_per_sweep / dt, calls_per_sweep);
  }
  r.ops_per_rep = static_cast<double>(calls_per_sweep);
  r.host_ops_per_s = r.ops_per_rep / median(r.op_s);

  if (o.trace) {
    acct.finish(r);
    r.layer["arch.train_batch_ms_p50"] = quantile(train_s, 0.50) * 1e3;
    r.layer["arch.train_batch_ms_p99"] = quantile(train_s, 0.99) * 1e3;
    r.layer["arch.forward_ms_p50"] = quantile(fwd_s, 0.50) * 1e3;
  }
}

// ---- Provenance -------------------------------------------------------------

const char* clone_tier() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
#else
  return "none";
#endif
}

// Sanitizer the driver was compiled with, as the compiler reports it, so a
// -fsanitize passed through any flag variable is caught.
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#endif
#endif
  return "";
}

#if defined(RERAMDL_OBS_DISABLED)
constexpr bool kObsCompiledIn = false;
#else
constexpr bool kObsCompiledIn = true;
#endif

std::size_t affinity_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool host_metrics_trustworthy(std::string& why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    why = "build type " + type;
    return false;
  }
  if (*sanitizer() != '\0') {
    why = std::string("sanitizer ") + sanitizer();
    return false;
  }
  return true;
}

void write_result(const Options& o, const Result& r, std::ostream& os) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("workload", o.workload);
  w.kv("seed", o.seed);
  w.kv("size", o.tiny ? "tiny" : "full");
  w.kv("traced", o.trace);
  w.key("provenance");
  w.begin_object();
  w.kv("nproc", static_cast<std::uint64_t>(affinity_cpus()));
  w.kv("hardware_concurrency",
       static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("pool_threads", static_cast<std::uint64_t>(parallel::thread_count()));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("reramdl_obs", kObsCompiledIn);
  w.kv("sanitizer", sanitizer());
  w.kv("target_clone_tier", clone_tier());
  w.end_object();
  w.key("setup_s");
  w.begin_array();
  for (double v : r.setup_s) w.value(v);
  w.end_array();
  w.kv("host_name", r.host_name);
  w.kv("host_unit", r.host_unit);
  w.kv("host_ops_per_s", r.host_ops_per_s);
  w.kv("host_ops_per_ref_s", r.host_ops_per_ref_s);
  w.kv("setup_ref_s", r.setup_ref_s);
  w.kv("ref_kernel_s", r.ref_kernel_s);
  w.kv("ref_runs", static_cast<std::uint64_t>(r.ref_runs));
  w.key("op_s");
  w.begin_array();
  for (double v : r.op_s) w.value(v);
  w.end_array();
  w.kv("peak_rss_mb", peak_rss_mb());
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  auto write_map = [&w](const char* key, const auto& m) {
    w.key(key);
    w.begin_object();
    for (const auto& [k, v] : m) w.kv(k, v);
    w.end_object();
  };
  write_map("checks", r.checks);
  write_map("digests", r.digests);
  write_map("modeled", r.modeled);
  write_map("layer", r.layer);
  write_map("fold", r.fold);
  w.end_object();
  w.finish();
}

int usage(const char* msg) {
  std::cerr << "error: " << msg
            << "\nusage: reramdl_bench --workload NAME --seed N --seconds S "
               "--out PATH [--size full|tiny] [--trace] [--spans-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--trace") o.trace = true;
    else if (!has_value) return usage(("missing value for " + a).c_str());
    else if (a == "--workload") o.workload = argv[++i];
    else if (a == "--seed") o.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--out") o.out_path = argv[++i];
    else if (a == "--spans-out") o.spans_path = argv[++i];
    else if (a == "--size") o.tiny = std::string(argv[++i]) == "tiny";
    else return usage(("unknown argument " + a).c_str());
  }
  if (o.out_path.empty()) return usage("--out is required");
  if (!(o.seconds >= 0.0)) return usage("--seconds must be >= 0");

  std::string why;
  if (!host_metrics_trustworthy(why)) {
    std::cerr << "error: refusing to report host metrics from a " << why
              << " build\n";
    return 3;
  }
  if (o.trace && !kObsCompiledIn) {
    std::cerr << "error: the library's spans are compiled out "
                 "(RERAMDL_OBS_DISABLED); a traced run needs them\n";
    return 3;
  }

  // The library's observation is switched on only inside traced
  // repetitions; RERAMDL_TRACE / RERAMDL_METRICS only name the files.
  g_lib.trace_path = obs::trace_path();
  obs::set_trace_path("");
  obs::set_metrics_enabled(false);
  g_spans.enabled = o.trace;

  Result r;
  if (o.workload == "serve_lenet") run_serve(false, o, r);
  else if (o.workload == "serve_aging") run_serve(true, o, r);
  else if (o.workload == "train_regan") run_train_regan(o, r);
  else if (o.workload == "chip_vgg") run_chip_vgg(o, r);
  else return usage(("unknown workload " + o.workload).c_str());

  if (o.trace) table1_reference(r);
  const HostReference& ref = host_reference();
  r.ref_kernel_s = median(ref.run_s);
  r.ref_runs = ref.run_s.size();
  const double ref_second_s = r.ref_kernel_s * kRefUnitRuns;
  r.host_ops_per_ref_s = r.host_ops_per_s * ref_second_s;
  r.setup_ref_s = median(r.setup_s) / ref_second_s;
  r.checks["reference_kernel_repeats"] = ref.kernel.repeats();

  std::ofstream os(o.out_path);
  if (!os) {
    std::cerr << "error: cannot write " << o.out_path << "\n";
    return 2;
  }
  write_result(o, r, os);
  os.close();
  if (o.trace) {
    if (!o.spans_path.empty()) g_spans.write(o.spans_path);
    if (g_lib.available()) {
      obs::set_trace_path(g_lib.trace_path);
      obs::write_trace();
      obs::set_trace_path("");  // nothing left for the exit-time writer
    }
  }
  return 0;
}
