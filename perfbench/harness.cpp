// perfbench_harness: drives one benchmark workload through the coupon
// library's public entry points, checks its outputs, and prints one JSON
// result line (the last line of standard output).
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--spans <path>]
//
// --trace 0 measures the end-to-end metrics with no tracing in the
// measured code. --trace 1 runs each unit of work twice, untraced and with
// the bench-side seam decorators of trace.hpp, checks that both give the
// same outputs bit for bit, and reports the per-layer metrics. See
// README.md for the workloads and every metric's definition.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analytic/predictor.hpp"
#include "comm/message.hpp"
#include "comm/tcp_transport.hpp"
#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "core/scheme_registry.hpp"
#include "data/batching.hpp"
#include "data/synthetic.hpp"
#include "driver/driver.hpp"
#include "driver/experiment_config.hpp"
#include "driver/record.hpp"
#include "driver/runtime.hpp"
#include "driver/scenario_registry.hpp"
#include "driver/sweep.hpp"
#include "engine/simulated_provider.hpp"
#include "engine/training_engine.hpp"
#include "opt/logistic.hpp"
#include "opt/optimizer.hpp"
#include "opt/trainer.hpp"
#include "runtime/process_cluster.hpp"
#include "runtime/thread_cluster.hpp"
#include "simulate/cluster_config.hpp"
#include "simulate/cluster_sim.hpp"
#include "stats/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using coupon::driver::ExperimentConfig;
using coupon::driver::RunRecord;

// ---------------------------------------------------------------------------
// Small utilities.

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Per-unit figures of a run. On a shared host the speed of the code
/// under test changes for seconds at a time, so each figure is taken per
/// short unit of work and the run reports the median across its units: a
/// slow or fast spell that covers a minority of the units does not move it.
struct Units {
  std::vector<double> rates;  // iterations per second
  std::vector<double> p50s;   // per-iteration latency quantiles, us
  std::vector<double> p99s;

  void add(const std::vector<double>& latencies_us) {
    rates.push_back(1e6 / mean_of(latencies_us));
    p50s.push_back(median(latencies_us));
    p99s.push_back(quantile(latencies_us, 0.99));
  }
};

/// Peak resident set of this process image. /proc's VmHWM, not
/// getrusage: ru_maxrss survives exec and would report the launcher's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Set-ups per run; `setup_s` is their median. They are spread over the
/// run, a few after each measured unit, so that they sample the same
/// stretch of host time as the unit metrics instead of one instant.
constexpr int kSetupRepeats = 15;         // before a traced run
constexpr int kSweepSetupsPerUnit = 3;    // ~10 ms each, ~1.5-s units
constexpr int kLiveSetupsPerUnit = 20;    // ~3 ms each, ~5-s units

/// Outcome bookkeeping shared by every workload: operations attempted and
/// failed (iterations, live-runtime faults, correctness checks).
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
  }
};

/// Ordered metric table: name -> (value, unit).
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;
  void set(const std::string& name, double value, const std::string& unit) {
    rows.push_back({name, {value, unit}});
  }
};

/// All 17 significant digits; JSON has no spelling for NaN or infinity.
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Cell construction. These replicate the driver's per-cell protocol (seed
// -> data -> scheme, on one RNG stream) with the library's public calls,
// so a harness-built cell names the same problem as the driver's; the
// checks compare the two bit for bit.

std::unique_ptr<coupon::core::Scheme> make_scheme(const ExperimentConfig& c,
                                                  bool seed_first_batches,
                                                  coupon::stats::Rng& rng) {
  coupon::core::SchemeConfig sconf;
  sconf.num_workers = c.num_workers;
  sconf.num_units = c.num_units;
  sconf.load = c.load;
  sconf.bcc_seed_first_batches = seed_first_batches;
  return coupon::core::SchemeRegistry::instance().create(c.scheme, sconf, rng);
}

/// The synthetic logistic-regression training problem of one cell, built
/// in the driver's draw order. Heap-held: the source points into it.
struct TrainCell {
  ExperimentConfig config;
  coupon::stats::Rng rng{0};
  coupon::data::SyntheticProblem problem;
  std::optional<coupon::data::BatchPartition> partition;
  std::unique_ptr<coupon::core::UnitGradientSource> source;
  std::unique_ptr<coupon::core::Scheme> scheme;
};

std::unique_ptr<TrainCell> build_train_cell(const ExperimentConfig& config,
                                            Tracer* tracer) {
  auto cell = std::make_unique<TrainCell>();
  cell->config = config;
  cell->rng = coupon::stats::Rng(config.seed);
  {
    std::optional<Scope> scope;
    if (tracer != nullptr) {
      scope.emplace(*tracer, Kind::kDataGenerate);
    }
    coupon::data::SyntheticConfig dconf;
    dconf.num_features = config.features;
    const std::size_t examples = config.num_units * config.examples_per_unit;
    cell->problem = coupon::data::generate_logreg(examples, dconf, cell->rng);
    cell->partition.emplace(examples, config.examples_per_unit);
  }
  cell->source = std::make_unique<coupon::core::GroupedBatchSource>(
      cell->problem.dataset, *cell->partition);
  cell->scheme = make_scheme(config, /*seed_first_batches=*/true, cell->rng);
  return cell;
}

std::unique_ptr<coupon::opt::IterativeOptimizer> make_optimizer(
    const ExperimentConfig& config) {
  return std::make_unique<coupon::opt::NesterovGradient>(
      config.features,
      coupon::opt::LearningRateSchedule::constant(config.learning_rate));
}

/// The time-to-target goal of a training cell: the loss the serial
/// reference loop (opt::train over engine::reference_oracle) reaches after
/// `iteration` + 1 steps. It is taken where the loss still falls steeply,
/// so a distributed run of the cell, whose gradient sums differ from the
/// reference only in rounding, crosses it at the same iteration or the
/// next, and the goal scales with the problem the seed draws.
double reference_target(const ExperimentConfig& config, std::size_t iteration) {
  auto cell = build_train_cell(config, nullptr);
  auto optimizer = make_optimizer(config);
  const coupon::data::Dataset& dataset = cell->problem.dataset;
  const std::function<double(std::span<const double>)> loss =
      [&dataset](std::span<const double> w) {
        return coupon::opt::logistic_loss(dataset, w);
      };
  const auto run = coupon::opt::train(
      *optimizer, coupon::engine::reference_oracle(*cell->source),
      iteration + 1, &loss);
  return run.loss_history.at(iteration);
}

/// The loss seam: evaluates the cell's loss after every iteration and
/// stamps the wall clock, which is how iteration latency is measured.
struct LossProbe {
  std::vector<std::int64_t> stamps;
  std::int64_t first_at_target = -1;
};

std::function<double(std::span<const double>)> make_loss_fn(
    const coupon::data::Dataset& dataset, double target, LossProbe& probe,
    Tracer* tracer) {
  return [&dataset, target, &probe, tracer](std::span<const double> w) {
    if (tracer != nullptr) {
      tracer->close_if_top(Kind::kLiveProvider);
      tracer->open(Kind::kLoss);
    }
    const double loss = coupon::opt::logistic_loss(dataset, w);
    const std::int64_t t = now_ns();
    if (tracer != nullptr) {
      tracer->close();
      tracer->close_if_top(Kind::kIteration);
    }
    probe.stamps.push_back(t);
    if (loss <= target && probe.first_at_target < 0) {
      probe.first_at_target = t;
    }
    return loss;
  };
}

/// Per-iteration latencies (us) of a run of `iterations` from its stamps;
/// with `start_ns` >= 0 the first iteration is timed from it, otherwise
/// skipped (a live runtime's first iteration also carries its bring-up).
void append_latencies(const LossProbe& probe, std::size_t iterations,
                      std::int64_t start_ns, std::vector<double>& out) {
  const std::size_t n = std::min(iterations, probe.stamps.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 && start_ns < 0) {
      continue;
    }
    const std::int64_t prev = i == 0 ? start_ns : probe.stamps[i - 1];
    out.push_back(static_cast<double>(probe.stamps[i] - prev) * 1e-3);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Workload definitions.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

struct Result {
  Metrics metrics;
  Outcome outcome;
  double peak_rss_mb = 0.0;  // after set-up and the first measured unit
};

/// Per-layer metric names, in BENCHMARK.json order. A traced run prints
/// all of them; a layer that does no work on a workload reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"driver.cell_setup_us", "us"},
      {"driver.cells", "count"},
      {"data.generate_ms", "ms"},
      {"simulate.draw_ns_per_worker", "ns"},
      {"simulate.kernel_us_per_iter", "us"},
      {"simulate.select_scan_us_per_iter", "us"},
      {"simulate.workers_heard_per_iter", "count"},
      {"core.offer_ns", "ns"},
      {"core.offers_per_iter", "count"},
      {"core.decode_us_per_iter", "us"},
      {"core.encode_us_per_iter", "us"},
      {"core.unit_gradients_per_iter", "count"},
      {"engine.provider_us_per_iter", "us"},
      {"engine.self_us_per_iter", "us"},
      {"opt.step_us", "us"},
      {"opt.loss_eval_us", "us"},
      {"comm.serialize_us", "us"},
      {"comm.deserialize_us", "us"},
      {"comm.frame_rtt_us", "us"},
      {"comm.bytes_per_iter", "bytes"},
      {"runtime.setup_ms", "ms"},
      {"runtime.master_wait_us_per_iter", "us"},
      {"runtime.useful_msg_ratio", "ratio"},
      {"runtime.threaded_floor_us_p50", "us"},
      {"runtime.serial_floor_us", "us"},
      {"unaccounted_share", "ratio"},
      {"trace_overhead", "ratio"},
  };
  return names;
}

/// Fills every per-layer metric from a tracer and the workload's own
/// counts; `extra` holds the values measured outside the tracer.
void emit_layer_metrics(const Tracer& t, double iterations, double passes,
                        double workers_heard, double unit_gradients,
                        const std::map<std::string, double>& extra,
                        Metrics& out) {
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::map<std::string, double> v;
  v["driver.cell_setup_us"] =
      per(t.incl_ns(Kind::kCellSetup), t.count(Kind::kCellSetup)) * 1e-3;
  v["driver.cells"] = per(t.count(Kind::kCellSetup), passes);
  v["data.generate_ms"] =
      per(t.incl_ns(Kind::kDataGenerate), t.count(Kind::kDataGenerate)) * 1e-6;
  v["simulate.draw_ns_per_worker"] =
      per(t.incl_ns(Kind::kDraw), t.count(Kind::kDraw));
  v["simulate.kernel_us_per_iter"] =
      per(t.self_ns(Layer::kSimulate), iterations) * 1e-3;
  v["simulate.select_scan_us_per_iter"] =
      per(t.kind_self_ns(Kind::kSweepCall), iterations) * 1e-3;
  v["simulate.workers_heard_per_iter"] = workers_heard;
  v["core.offer_ns"] = per(t.incl_ns(Kind::kOffer), t.count(Kind::kOffer));
  v["core.offers_per_iter"] = per(t.count(Kind::kOffer), iterations);
  v["core.decode_us_per_iter"] =
      per(t.incl_ns(Kind::kDecode), iterations) * 1e-3;
  v["core.encode_us_per_iter"] =
      per(t.incl_ns(Kind::kEncode), iterations) * 1e-3;
  v["core.unit_gradients_per_iter"] = per(unit_gradients, iterations);
  v["engine.provider_us_per_iter"] =
      per(t.incl_ns(Kind::kProvider) + t.incl_ns(Kind::kLiveProvider),
          iterations) * 1e-3;
  v["engine.self_us_per_iter"] =
      per(t.self_ns(Layer::kEngine), iterations) * 1e-3;
  v["opt.step_us"] = per(t.incl_ns(Kind::kStep), t.count(Kind::kStep)) * 1e-3;
  v["opt.loss_eval_us"] =
      per(t.incl_ns(Kind::kLoss), t.count(Kind::kLoss)) * 1e-3;
  v["runtime.master_wait_us_per_iter"] =
      per(t.kind_self_ns(Kind::kLiveProvider), iterations) * 1e-3;
  v["unaccounted_share"] =
      per(t.self_ns(Layer::kNone), t.incl_ns(Kind::kPass));
  for (const auto& [name, value] : extra) {
    v[name] = value;
  }
  for (const auto& [name, unit] : layer_metric_units()) {
    out.set(name, v.count(name) ? v[name] : 0.0, unit);
  }
}

void write_spans(const Args& args, const Tracer& tracer) {
  if (args.spans_path.empty()) {
    return;
  }
  std::ofstream os(args.spans_path);
  tracer.write_json(os);
}

// ---------------------------------------------------------------------------
// sweep_sim: a timing-only simulated sweep through driver::run_sweep, run
// as the program's sweep callers run it (coupon_run --sweep, fig4, the
// tables and ablations): no per-iteration traces, so the driver groups
// consecutive same-n cells into batched kernel passes.

constexpr std::size_t kSweepIterations = 1000;
constexpr std::size_t kSweepSeeds = 4;
constexpr std::array<std::size_t, 3> kSweepWorkers = {20, 50, 100};
constexpr std::array<const char*, 6> kSweepSchemes = {
    "uncoded", "cr", "fr", "bcc", "gc_cyclic", "sgc"};
constexpr std::array<const char*, 4> kSweepScenarios = {
    "shifted_exp", "heavy_tail", "bursty", "lossy"};
// The exact oracle's cost grows steeply with n (seconds per cell at
// n = 100), so the oracle gate runs on the grid's smallest n, which
// still covers every scheme x scenario pair.
constexpr std::size_t kOracleWorkers = kSweepWorkers[0];
// Registry names of the traced copies of the sweep's schemes and
// scenarios (see register_traced_sweep_entries).
constexpr std::string_view kTracedPrefix = "perfbench_traced_";

/// CPU time of the calling thread. The sweep runs serially on this
/// thread, so its CPU time leaves out the time the host gives to others.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The sweep grid: one plan per n (schemes x scenarios x the run's
/// derived seeds, 96 cells), so every plan is one same-n run of batches.
/// `prefix` selects the traced registry entries.
std::vector<coupon::driver::SweepPlan> sweep_plans(
    std::uint64_t seed, std::string_view prefix = {}) {
  std::vector<coupon::driver::SweepPlan> plans;
  for (std::size_t n : kSweepWorkers) {
    coupon::driver::SweepPlan plan;
    plan.base.runtime = "sim";
    plan.base.load = 10;
    plan.base.iterations = kSweepIterations;
    plan.base.record_trace = false;
    for (const char* scheme : kSweepSchemes) {
      plan.schemes.push_back(std::string(prefix) + scheme);
    }
    for (const char* scenario : kSweepScenarios) {
      plan.scenarios.push_back(std::string(prefix) + scenario);
    }
    plan.workers = {n};
    for (std::size_t k = 0; k < kSweepSeeds; ++k) {
      plan.seeds.push_back(seed * 1000 + k);
    }
    plans.push_back(plan);
  }
  return plans;
}

/// Records the thread CPU clock per finished cell. A serial sweep writes
/// a batch's records together, right after the batch.
class StampSink final : public coupon::driver::RecordSink {
 public:
  explicit StampSink(std::vector<std::int64_t>& stamps) : stamps_(stamps) {}
  void write(const RunRecord&) override { stamps_.push_back(cpu_ns()); }

 private:
  std::vector<std::int64_t>& stamps_;
};

/// One pass over every plan through serial run_sweep calls.
struct SweepPass {
  std::vector<RunRecord> records;
  std::vector<double> batch_us;  // CPU us per cell-iteration of each batch
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::size_t iterations = 0;
};

SweepPass run_sweep_pass(const std::vector<coupon::driver::SweepPlan>& plans,
                         Tracer* tracer) {
  SweepPass pass;
  coupon::driver::SweepOptions options;
  options.threads = 1;
  // The driver's batch size: each plan has one n, so its batches are
  // consecutive runs of this many cells.
  const std::size_t batch = options.sim_batch;
  const std::int64_t wall_start = now_ns();
  for (const auto& plan : plans) {
    std::vector<std::int64_t> stamps;
    stamps.reserve(128);
    StampSink sink(stamps);
    options.sink = &sink;
    const std::int64_t start = cpu_ns();
    std::vector<RunRecord> records;
    {
      std::optional<Scope> call;
      if (tracer != nullptr) {
        call.emplace(*tracer, Kind::kSweepCall);
      }
      records = coupon::driver::run_sweep(plan, options);
    }
    pass.cpu_s += static_cast<double>(cpu_ns() - start) * 1e-9;
    std::int64_t prev = start;
    for (std::size_t first = 0; first < stamps.size(); first += batch) {
      const std::size_t last = std::min(first + batch, stamps.size()) - 1;
      double iterations = 0.0;
      for (std::size_t k = first; k <= last; ++k) {
        iterations += static_cast<double>(records.at(k).iterations);
      }
      pass.batch_us.push_back(static_cast<double>(stamps[last] - prev) *
                              1e-3 / iterations);
      prev = stamps[last];
    }
    for (auto& rec : records) {
      pass.iterations += rec.iterations;
      pass.records.push_back(std::move(rec));
    }
  }
  pass.wall_s = seconds_since(wall_start);
  return pass;
}

/// CPU seconds of run_sweep over a one-iteration copy of the plans: plan
/// expansion and batching, then per cell the scenario, RNG, scheme and
/// kernel state the driver builds, plus one iteration per cell.
double sweep_setup_seconds(std::vector<coupon::driver::SweepPlan> plans) {
  coupon::driver::SweepOptions options;
  options.threads = 1;
  for (auto& plan : plans) {
    plan.base.iterations = 1;
  }
  const std::int64_t start = cpu_ns();
  for (const auto& plan : plans) {
    coupon::driver::run_sweep(plan, options);
  }
  return static_cast<double>(cpu_ns() - start) * 1e-9;
}

/// The scheme name with the traced prefix removed.
std::string_view untraced_name(std::string_view name) {
  return name.substr(0, kTracedPrefix.size()) == kTracedPrefix
             ? name.substr(kTracedPrefix.size())
             : name;
}

bool same_summary(const RunRecord& a, const RunRecord& b) {
  return untraced_name(a.scheme) == untraced_name(b.scheme) &&
         a.seed == b.seed && a.num_workers == b.num_workers &&
         same_bits(a.recovery_threshold, b.recovery_threshold) &&
         same_bits(a.total_time, b.total_time) &&
         same_bits(a.comm_time, b.comm_time) &&
         same_bits(a.compute_time, b.compute_time) &&
         same_bits(a.mean_units, b.mean_units) && a.failures == b.failures;
}

bool same_records(const std::vector<RunRecord>& a,
                  const std::vector<RunRecord>& b) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = same_summary(a[i], b[i]);
  }
  return same;
}

/// The first plan's cells (n = kOracleWorkers) with per-iteration traces
/// on. The driver then runs each cell on its own through the simulated
/// runtime; the records must equal the batched ones, and their traces
/// feed the oracle check. Untimed.
std::vector<RunRecord> oracle_records(
    const std::vector<coupon::driver::SweepPlan>& plans) {
  coupon::driver::SweepPlan plan = plans.front();
  plan.base.record_trace = true;
  coupon::driver::SweepOptions options;
  options.threads = 1;
  return coupon::driver::run_sweep(plan, options);
}

/// For every [analytic] scheme x scenario pair, the simulated mean K and
/// mean per-iteration time of its cells (all seeds pooled) lie within 5
/// standard errors of the exact oracle's mean over the same cells — the
/// gate of tests/analytic_oracle_test.cpp.
///
/// Two refinements. (1) A rare coverage failure (the oracle gives its
/// probability p) may never occur in N iterations and leave K with no
/// spread; K's standard error is floored at n * sqrt(p(1-p)/N).
/// (2) Known defect, reported on every run and not gated: for Pareto
/// laws (heavy_tail) the oracle's E[T] quadrature integrates up to the
/// 1 - 1e-13/n quantile (~3e7 s at alpha = 1.5), which its bisection depth
/// cannot resolve; its E[T] then sits ~10 ms above the simulated mean,
/// thousands of standard errors away. E[K] is still gated there.
void check_against_oracle(const std::vector<RunRecord>& records,
                          Outcome& outcome) {
  struct Pair {
    coupon::stats::OnlineStats time;
    coupon::stats::OnlineStats workers;
    double expected_time = 0.0;
    double expected_workers = 0.0;
    double failure_probability = 0.0;
    double cells = 0.0;
    bool pareto = false;
  };
  std::map<std::string, Pair> pairs;
  for (const RunRecord& rec : records) {
    if (rec.num_workers != kOracleWorkers) {
      continue;
    }
    const auto scenario = coupon::driver::ScenarioRegistry::instance().build(
        rec.scenario, rec.num_workers);
    ExperimentConfig config;
    config.scheme = rec.scheme;
    config.num_workers = rec.num_workers;
    config.num_units = rec.num_units;
    config.load = rec.load;
    coupon::stats::Rng rng(rec.seed);
    const auto scheme = make_scheme(config, /*seed_first_batches=*/false, rng);
    coupon::analytic::PredictOptions options;
    options.quantiles = false;
    const auto prediction =
        coupon::analytic::predict(*scheme, scenario.cluster, options);
    if (!prediction) {
      continue;
    }
    Pair& pair = pairs[rec.scheme + "/" + rec.scenario];
    for (const auto& it : rec.trace) {
      pair.time.add(it.total_time);
      pair.workers.add(static_cast<double>(it.workers_heard));
    }
    pair.expected_time += prediction->expected_time;
    pair.expected_workers += prediction->expected_workers;
    pair.failure_probability += prediction->failure_probability;
    pair.cells += 1.0;
    pair.pareto =
        coupon::simulate::make_latency_model(scenario.cluster, rec.num_workers)
            ->law()
            .family == coupon::simulate::LatencyLaw::Family::kPareto;
  }
  for (const auto& [name, pair] : pairs) {
    const double expected_time = pair.expected_time / pair.cells;
    const double expected_workers = pair.expected_workers / pair.cells;
    const double p = pair.failure_probability / pair.cells;
    const double samples = static_cast<double>(pair.workers.count());
    const double k_sem =
        std::max(pair.workers.sem(), static_cast<double>(kOracleWorkers) *
                                         std::sqrt(p * (1.0 - p) / samples));
    const std::string tag = name + "/n=" + std::to_string(kOracleWorkers);
    const bool time_ok = std::abs(pair.time.mean() - expected_time) <=
                         5.0 * pair.time.sem() + 1e-9;
    const std::string time_row = tag + " mean T " +
                                 json_number(pair.time.mean()) + " vs oracle " +
                                 json_number(expected_time);
    if (pair.pareto) {
      if (!time_ok) {
        std::cerr << "perfbench: known oracle defect (Pareto E[T]), not "
                     "gated: "
                  << time_row << "\n";
      }
    } else {
      outcome.check(time_ok, time_row);
    }
    outcome.check(std::abs(pair.workers.mean() - expected_workers) <=
                      5.0 * k_sem + 1e-9,
                  tag + " mean K " + json_number(pair.workers.mean()) +
                      " vs oracle " + json_number(expected_workers));
  }
  outcome.check(!pairs.empty(), "no [analytic] cell in the sweep");
}

/// A cluster whose latency models are wrapped in TracedLatencyModel.
coupon::simulate::ClusterConfig traced_cluster(
    const coupon::simulate::ClusterConfig& cluster, Tracer& tracer) {
  coupon::simulate::ClusterConfig traced = cluster;
  coupon::simulate::ClusterConfig base = cluster;
  base.latency_model = nullptr;
  traced.latency_model = [inner = cluster.latency_model, base,
                          &tracer](std::size_t n) {
    return std::unique_ptr<coupon::simulate::LatencyModel>(
        std::make_unique<TracedLatencyModel>(
            inner ? inner(n) : coupon::simulate::make_latency_model(base, n),
            tracer));
  };
  return traced;
}

/// Registers a traced copy of each sweep scheme and scenario under
/// kTracedPrefix: the scheme factory wraps the built-in scheme in
/// TracedScheme, the scenario builder wraps its latency model. A traced
/// pass runs the same run_sweep calls on these names, so the spans come
/// from the driver's own set-up and kernel path. Each factory call opens
/// the set-up span of its batch (Tracer::begin_setup_phase).
void register_traced_sweep_entries(Tracer& tracer) {
  auto& schemes = coupon::core::SchemeRegistry::instance();
  for (const char* name : kSweepSchemes) {
    const coupon::core::SchemeEntry* inner = schemes.find(name);
    coupon::core::SchemeEntry entry;
    entry.name = std::string(kTracedPrefix) + inner->name;
    entry.description = "traced " + inner->name;
    entry.caps = inner->caps;
    entry.factory = [inner_name = inner->name, &tracer](
                        const coupon::core::SchemeConfig& config,
                        coupon::stats::Rng& rng) {
      tracer.begin_setup_phase();
      return std::unique_ptr<coupon::core::Scheme>(
          std::make_unique<TracedScheme>(
              coupon::core::SchemeRegistry::instance().create(inner_name,
                                                              config, rng),
              tracer));
    };
    schemes.add(std::move(entry));
  }
  auto& scenarios = coupon::driver::ScenarioRegistry::instance();
  for (const char* name : kSweepScenarios) {
    const coupon::driver::ScenarioEntry* inner = scenarios.find(name);
    coupon::driver::ScenarioEntry entry;
    entry.name = std::string(kTracedPrefix) + inner->name;
    entry.description = "traced " + inner->name;
    entry.sim_only = inner->sim_only;
    entry.live_only = inner->live_only;
    entry.builder = [inner_name = inner->name, &tracer](std::size_t n) {
      tracer.begin_setup_phase();
      coupon::driver::Scenario scenario =
          coupon::driver::ScenarioRegistry::instance().build(inner_name, n);
      scenario.cluster = traced_cluster(scenario.cluster, tracer);
      return scenario;
    };
    scenarios.add(std::move(entry));
  }
}

Result run_sweep_sim(const Args& args) {
  Result result;
  Outcome& outcome = result.outcome;
  const auto plans = sweep_plans(args.seed);

  if (!args.trace) {
    std::vector<double> setups;
    std::vector<std::pair<double, double>> passes;  // (iterations, CPU s)
    std::vector<double> p50s;
    std::vector<double> batch_us;
    std::vector<double> walls;
    std::optional<std::vector<RunRecord>> first;
    const std::int64_t start = now_ns();
    while (walls.empty() || seconds_since(start) < args.seconds) {
      SweepPass pass = run_sweep_pass(plans, nullptr);
      for (int i = 0; i < kSweepSetupsPerUnit; ++i) {
        setups.push_back(sweep_setup_seconds(plans));
      }
      // Less one iteration per cell: see the set-up exclusion below.
      passes.emplace_back(static_cast<double>(pass.iterations) -
                              static_cast<double>(pass.records.size()),
                          pass.cpu_s);
      p50s.push_back(median(pass.batch_us));
      batch_us.insert(batch_us.end(), pass.batch_us.begin(),
                      pass.batch_us.end());
      walls.push_back(pass.wall_s);
      outcome.attempted += pass.iterations;
      if (!first) {
        result.peak_rss_mb = peak_rss_mb();
        first = std::move(pass.records);
      } else {
        outcome.check(same_records(*first, pass.records),
                      "sweep passes of one plan differ");
      }
    }
    const std::vector<RunRecord> one_by_one = oracle_records(plans);
    outcome.check(
        same_records(one_by_one,
                     std::vector<RunRecord>(
                         first->begin(),
                         first->begin() + static_cast<std::ptrdiff_t>(
                                              one_by_one.size()))),
        "batched cells differ from the same cells run one at a time");
    check_against_oracle(one_by_one, outcome);
    // Set-up excluded: the one-iteration sweep's CPU time stands for the
    // set-up and first iteration of every cell.
    const double setup_s = median(setups);
    std::vector<double> rates;
    for (const auto& [iterations, cpu_s] : passes) {
      rates.push_back(iterations / (cpu_s - setup_s));
    }
    std::cerr << "sweep_sim: " << walls.size() << " passes of "
              << first->size() << " cells, " << batch_us.size()
              << " batch latency samples, " << setups.size() << " set-ups\n";
    result.metrics.set("iters_per_s", median(rates), "1/s");
    result.metrics.set("iter_us_p50", median(p50s), "us");
    // A pass has only 36 batches, so the p99 pools every batch of the run.
    result.metrics.set("iter_us_p99", quantile(batch_us, 0.99), "us");
    result.metrics.set("time_to_target_s", median(walls), "s");
    result.metrics.set("setup_s", setup_s, "s");
    return result;
  }

  Tracer tracer;
  register_traced_sweep_entries(tracer);
  const auto traced_plans = sweep_plans(args.seed, kTracedPrefix);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double iterations = 0.0;
  double cells = 0.0;
  double heard = 0.0;
  double passes = 0.0;
  const std::int64_t start = now_ns();
  while (passes == 0.0 || seconds_since(start) < args.seconds) {
    SweepPass pass = run_sweep_pass(plans, nullptr);
    untraced_s += pass.wall_s;
    SweepPass traced;
    {
      Scope root(tracer, Kind::kPass);
      traced = run_sweep_pass(traced_plans, &tracer);
    }
    traced_s += traced.wall_s;
    outcome.check(same_records(traced.records, pass.records),
                  "traced sweep differs from the untraced sweep");
    for (const auto& rec : pass.records) {
      heard += rec.recovery_threshold * static_cast<double>(rec.iterations);
    }
    iterations += static_cast<double>(pass.iterations);
    cells += static_cast<double>(pass.records.size());
    outcome.attempted += pass.iterations;
    passes += 1.0;
  }
  std::map<std::string, double> extra;
  extra["trace_overhead"] = traced_s / untraced_s - 1.0;
  extra["driver.cell_setup_us"] = tracer.incl_ns(Kind::kCellSetup) / cells *
                                  1e-3;
  extra["driver.cells"] = cells / passes;
  extra["simulate.kernel_us_per_iter"] =
      (tracer.incl_ns(Kind::kSweepCall) - tracer.incl_ns(Kind::kCellSetup)) /
      iterations * 1e-3;
  emit_layer_metrics(tracer, iterations, passes, heard / iterations, 0.0,
                     extra, result.metrics);
  write_spans(args, tracer);
  return result;
}

// ---------------------------------------------------------------------------
// train_sim: simulated-clock training through engine::TrainingEngine over
// the simulated provider, at the paper's scenario one.

constexpr std::size_t kTrainIterations = 400;
constexpr std::size_t kTrainTargetIteration = 100;
// Slow enough that the loss still falls steeply at the target iteration.
constexpr double kTrainLearningRate = 0.02;

std::vector<ExperimentConfig> train_configs(std::uint64_t seed) {
  std::vector<ExperimentConfig> configs;
  for (const char* scheme : {"uncoded", "fr", "bcc", "gc_cyclic", "sgc"}) {
    ExperimentConfig c;
    c.scheme = scheme;
    c.scenario = "shifted_exp";
    c.runtime = "sim";
    c.train = true;
    c.num_workers = 50;
    c.num_units = 50;
    c.load = 10;
    c.features = 20;
    c.examples_per_unit = 20;
    c.learning_rate = kTrainLearningRate;
    c.iterations = kTrainIterations;
    c.seed = seed;
    c.record_trace = false;
    configs.push_back(c);
  }
  // One seed, one dataset: every scheme trains toward the same goal.
  const double target =
      reference_target(configs.front(), kTrainTargetIteration);
  for (auto& c : configs) {
    c.target_loss = target;
  }
  return configs;
}

/// One trained cell's outputs and timing.
struct TrainRun {
  coupon::engine::TrainReport report;
  std::vector<double> iter_us;
  double to_target_s = -1.0;
  double unit_gradients = 0.0;
};

/// Builds and trains one simulated cell; with a tracer, every seam is
/// wrapped. Returns the set-up seconds through `setup_s`.
TrainRun train_sim_cell(const ExperimentConfig& config, Tracer* tracer,
                        double& setup_s) {
  const std::int64_t setup_start = now_ns();
  std::optional<Scope> setup_scope;
  if (tracer != nullptr) {
    setup_scope.emplace(*tracer, Kind::kCellSetup);
  }
  auto cell = build_train_cell(config, tracer);
  const auto scenario = coupon::driver::ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  auto cluster = std::make_shared<coupon::simulate::ClusterConfig>(
      scenario.cluster);
  std::optional<TracedScheme> traced_scheme;
  std::optional<TracedSource> traced_source;
  const coupon::core::Scheme* scheme = cell->scheme.get();
  const coupon::core::UnitGradientSource* source = cell->source.get();
  if (tracer != nullptr) {
    traced_scheme.emplace(*cell->scheme, *tracer);
    traced_source.emplace(*cell->source, *tracer);
    scheme = &*traced_scheme;
    source = &*traced_source;
    *cluster = traced_cluster(scenario.cluster, *tracer);
  }
  coupon::engine::SimulatedProvider provider(*scheme, *source, cluster,
                                             cell->rng);
  std::optional<TracedProvider> traced_provider;
  coupon::engine::IterationProvider* iteration_provider = &provider;
  if (tracer != nullptr) {
    traced_provider.emplace(provider, *tracer);
    iteration_provider = &*traced_provider;
  }
  auto optimizer = make_optimizer(config);
  std::optional<TracedOptimizer> traced_optimizer;
  coupon::opt::IterativeOptimizer* opt = optimizer.get();
  if (tracer != nullptr) {
    traced_optimizer.emplace(*optimizer, *tracer, /*live=*/false);
    opt = &*traced_optimizer;
  }
  LossProbe probe;
  probe.stamps.reserve(config.iterations + 2);
  coupon::engine::TrainOptions options;
  options.iterations = config.iterations;
  options.on_failure = config.on_failure;
  options.loss_fn =
      make_loss_fn(cell->problem.dataset, *config.target_loss, probe, tracer);
  options.target_loss = config.target_loss;
  options.approximate_recovery = coupon::core::SchemeRegistry::instance()
                                     .find(config.scheme)
                                     ->caps.approximate_recovery;
  coupon::engine::TrainingEngine engine(*scheme, *source, *iteration_provider);
  setup_scope.reset();
  setup_s = seconds_since(setup_start);

  TrainRun run;
  const std::int64_t start = now_ns();
  {
    std::optional<Scope> call;
    if (tracer != nullptr) {
      call.emplace(*tracer, Kind::kTrainCall);
    }
    run.report = engine.train(*opt, options);
  }
  append_latencies(probe, run.report.iterations_run, start, run.iter_us);
  if (probe.first_at_target >= 0) {
    run.to_target_s = static_cast<double>(probe.first_at_target - start) * 1e-9;
  }
  if (traced_source) {
    run.unit_gradients = traced_source->unit_gradients();
  }
  return run;
}

bool same_train(const coupon::engine::TrainReport& a,
                const coupon::engine::TrainReport& b) {
  return a.final_loss && b.final_loss &&
         same_bits(*a.final_loss, *b.final_loss) &&
         same_bits(a.elapsed_seconds, b.elapsed_seconds) &&
         same_bits(a.workers_heard.mean(), b.workers_heard.mean()) &&
         a.weights == b.weights;
}

bool is_exact(const std::string& scheme) {
  return !coupon::core::SchemeRegistry::instance()
              .find(scheme)
              ->caps.approximate_recovery;
}

/// Exact-recovery schemes must reach the same final loss on the simulated
/// and the threaded runtime from one seed (tests/driver_train_test.cpp
/// pins the property for uncoded).
constexpr std::size_t kLiveCheckIterations = 30;

Result run_train_sim(const Args& args) {
  Result result;
  Outcome& outcome = result.outcome;
  const auto configs = train_configs(args.seed);

  if (!args.trace) {
    std::vector<double> setups;
    std::vector<double> to_target;
    Units units;  // one unit: a pass over the five cells
    std::size_t samples = 0;
    std::vector<std::optional<coupon::engine::TrainReport>> first(
        configs.size());
    const std::int64_t start = now_ns();
    while (units.rates.empty() || seconds_since(start) < args.seconds) {
      double pass_setup = 0.0;
      std::vector<double> pass_us;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        double setup = 0.0;
        TrainRun run = train_sim_cell(configs[i], nullptr, setup);
        pass_setup += setup;
        outcome.attempted += run.report.iterations_run;
        outcome.failed += run.report.failed_iterations;
        pass_us.insert(pass_us.end(), run.iter_us.begin(), run.iter_us.end());
        to_target.push_back(run.to_target_s);
        if (!first[i]) {
          first[i] = std::move(run.report);
        } else {
          outcome.check(same_train(*first[i], run.report),
                        configs[i].scheme + ": repeated training differs");
        }
      }
      setups.push_back(pass_setup);
      units.add(pass_us);
      samples += pass_us.size();
      if (units.rates.size() == 1) {
        result.peak_rss_mb = peak_rss_mb();
      }
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      outcome.check(first[i]->time_to_target.has_value(),
                    configs[i].scheme + " never reached the target loss");
    }

    // The harness-built cells name the same runs as the driver's sweep.
    coupon::driver::SweepPlan plan;
    plan.base = configs.front();
    for (const auto& c : configs) {
      plan.schemes.push_back(c.scheme);
    }
    coupon::driver::SweepOptions sweep_options;
    sweep_options.threads = 1;
    const auto records = coupon::driver::run_sweep(plan, sweep_options);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const auto& rec = records[i];
      outcome.check(rec.final_loss && same_bits(*rec.final_loss,
                                                *first[i]->final_loss) &&
                        same_bits(rec.total_time, first[i]->elapsed_seconds),
                    configs[i].scheme + ": harness cell != run_sweep cell");
    }
    for (const auto& config : configs) {
      if (!is_exact(config.scheme)) {
        continue;
      }
      ExperimentConfig c = config;
      c.iterations = kLiveCheckIterations;
      const RunRecord sim = coupon::driver::run_experiment(c);
      c.runtime = "threaded";
      c.scenario = "no_stragglers";
      c.train = false;
      const RunRecord threaded = coupon::driver::run_experiment(c);
      outcome.check(sim.final_loss && threaded.final_loss &&
                        same_bits(*sim.final_loss, *threaded.final_loss),
                    c.scheme + ": sim final loss != threaded final loss");
    }
    std::vector<double> reached;
    for (double s : to_target) {
      if (s >= 0) {
        reached.push_back(s);
      }
    }
    result.metrics.set("iters_per_s", median(units.rates), "1/s");
    result.metrics.set("iter_us_p50", median(units.p50s), "us");
    result.metrics.set("iter_us_p99", median(units.p99s), "us");
    result.metrics.set("time_to_target_s", median(reached), "s");
    result.metrics.set("setup_s", median(setups), "s");
    std::cerr << "train_sim: " << units.rates.size() << " passes, " << samples
              << " iteration samples\n";
    return result;
  }

  Tracer tracer;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double iterations = 0.0;
  double heard = 0.0;
  double unit_gradients = 0.0;
  double passes = 0.0;
  const std::int64_t start = now_ns();
  while (passes == 0.0 || seconds_since(start) < args.seconds) {
    for (const auto& config : configs) {
      double setup = 0.0;
      const std::int64_t u0 = now_ns();
      TrainRun plain = train_sim_cell(config, nullptr, setup);
      untraced_s += seconds_since(u0);
      const std::int64_t t0 = now_ns();
      TrainRun traced;
      {
        Scope root(tracer, Kind::kPass);
        traced = train_sim_cell(config, &tracer, setup);
      }
      traced_s += seconds_since(t0);
      outcome.check(same_train(plain.report, traced.report),
                    config.scheme + ": traced training differs");
      iterations += static_cast<double>(traced.report.iterations_run);
      heard += traced.report.workers_heard.mean() *
               static_cast<double>(traced.report.iterations_run);
      unit_gradients += traced.unit_gradients;
      outcome.attempted += traced.report.iterations_run;
      outcome.failed += traced.report.failed_iterations;
    }
    passes += 1.0;
  }
  std::map<std::string, double> extra;
  extra["trace_overhead"] = traced_s / untraced_s - 1.0;
  emit_layer_metrics(tracer, iterations, passes, heard / iterations,
                     unit_gradients, extra, result.metrics);
  write_spans(args, tracer);
  return result;
}

// ---------------------------------------------------------------------------
// live_wire / live_straggler: bcc on the process runtime.

struct LiveSpec {
  const char* scenario;
  std::size_t iterations;  // per ProcessCluster::train call
};

constexpr std::size_t kLiveTargetIteration = 500;
constexpr double kLiveLearningRate = 0.001;
constexpr std::size_t kFloorIterations = 20000;

ExperimentConfig live_config(const std::string& scheme, const LiveSpec& spec,
                             std::uint64_t seed) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.scenario = spec.scenario;
  c.runtime = "process";
  c.num_workers = 4;
  c.num_units = 8;
  c.load = 4;
  c.features = 20;
  c.examples_per_unit = 20;
  c.learning_rate = kLiveLearningRate;
  c.iterations = spec.iterations;
  c.seed = seed;
  c.target_loss = reference_target(c, kLiveTargetIteration);
  return c;
}

struct LiveRun {
  coupon::runtime::ProcessTrainResult result;
  std::vector<double> iter_us;
  double wall_s = 0.0;
};

LiveRun live_train(TrainCell& cell, const coupon::driver::Scenario& scenario,
                   std::size_t iterations, Tracer* tracer) {
  std::optional<TracedScheme> traced_scheme;
  const coupon::core::Scheme* scheme = cell.scheme.get();
  if (tracer != nullptr) {
    traced_scheme.emplace(*cell.scheme, *tracer);
    scheme = &*traced_scheme;
  }
  coupon::runtime::ProcessCluster cluster(*scheme, *cell.source,
                                          cell.config.seed + 42);
  auto optimizer = make_optimizer(cell.config);
  std::optional<TracedOptimizer> traced_optimizer;
  coupon::opt::IterativeOptimizer* opt = optimizer.get();
  if (tracer != nullptr) {
    traced_optimizer.emplace(*optimizer, *tracer, /*live=*/true);
    opt = &*traced_optimizer;
  }
  LossProbe probe;
  probe.stamps.reserve(iterations + 2);
  coupon::runtime::ProcessTrainOptions options;
  options.iterations = iterations;
  options.on_failure = cell.config.on_failure;
  options.loss_fn =
      make_loss_fn(cell.problem.dataset, *cell.config.target_loss, probe,
                   tracer);
  options.target_loss = cell.config.target_loss;
  options.straggler = scenario.straggler;
  options.worker_timeout = std::chrono::milliseconds(10000);

  LiveRun run;
  const std::int64_t start = now_ns();
  {
    std::optional<Scope> call;
    if (tracer != nullptr) {
      call.emplace(*tracer, Kind::kTrainCall);
    }
    run.result = cluster.train(*opt, options);
  }
  run.wall_s = seconds_since(start);
  append_latencies(probe, run.result.report.iterations_run, -1, run.iter_us);
  return run;
}

void count_live(const LiveRun& run, Outcome& outcome) {
  const auto& r = run.result;
  outcome.attempted += r.report.iterations_run;
  outcome.failed += r.report.failed_iterations + r.timed_out_iterations +
                    r.workers_lost;
}

/// Wall seconds to bring up a cluster and train one iteration: data and
/// scheme build, fork, connect, one round, shutdown and reap.
double live_setup_seconds(const ExperimentConfig& config,
                          const coupon::driver::Scenario& quiet,
                          Outcome& outcome) {
  const std::int64_t start = now_ns();
  auto cell = build_train_cell(config, nullptr);
  LiveRun run = live_train(*cell, quiet, 1, nullptr);
  count_live(run, outcome);
  return seconds_since(start);
}

/// Direct timings of the comm layer at the workload's message shapes.
std::map<std::string, double> comm_metrics(const coupon::core::Scheme& scheme,
                                           std::size_t dim) {
  using coupon::comm::Message;
  Message bcast;
  bcast.source = 0;
  bcast.dest = 1;
  bcast.tag = coupon::comm::kTagModelBroadcast;
  bcast.iteration = 1;
  bcast.payload.assign(dim, 0.25);
  Message grad;
  grad.source = 1;
  grad.dest = 0;
  grad.tag = coupon::comm::kTagGradient;
  grad.iteration = 1;
  grad.meta = scheme.message_meta(0);
  grad.payload.assign(dim, 0.5);

  std::map<std::string, double> m;
  constexpr int kReps = 20000;
  std::size_t sink = 0;
  std::int64_t t0 = now_ns();
  for (int i = 0; i < kReps; ++i) {
    sink += coupon::comm::serialize(bcast).size();
  }
  m["comm.serialize_us"] = static_cast<double>(now_ns() - t0) * 1e-3 / kReps;
  const auto bytes = coupon::comm::serialize(grad);
  Message out;
  t0 = now_ns();
  for (int i = 0; i < kReps; ++i) {
    sink += coupon::comm::deserialize(bytes, out) ? out.payload.size() : 0;
  }
  m["comm.deserialize_us"] = static_cast<double>(now_ns() - t0) * 1e-3 / kReps;

  int fds[2] = {-1, -1};
  if (coupon::comm::make_stream_socketpair(fds)) {
    constexpr int kTrips = 4000;
    std::vector<double> rtt;
    rtt.reserve(kTrips);
    const auto timeout = std::chrono::milliseconds(1000);
    for (int i = 0; i < kTrips; ++i) {
      const std::int64_t s = now_ns();
      const bool ok =
          coupon::comm::send_frame(fds[0], bcast) &&
          coupon::comm::recv_frame(fds[1], timeout, out) ==
              coupon::comm::FrameStatus::kMessage &&
          coupon::comm::send_frame(fds[1], grad) &&
          coupon::comm::recv_frame(fds[0], timeout, out) ==
              coupon::comm::FrameStatus::kMessage;
      if (!ok) {
        break;
      }
      rtt.push_back(static_cast<double>(now_ns() - s) * 1e-3);
    }
    ::close(fds[0]);
    ::close(fds[1]);
    m["comm.frame_rtt_us"] = median(rtt);
  }
  // Computed, not measured: every worker gets one broadcast and sends one
  // gradient per iteration, each behind an 8-byte length prefix.
  double per_iter = 0.0;
  for (std::size_t w = 0; w < scheme.num_workers(); ++w) {
    grad.meta = scheme.message_meta(w);
    per_iter +=
        16.0 + static_cast<double>(bcast.wire_size() + grad.wire_size());
  }
  m["comm.bytes_per_iter"] = per_iter;
  if (sink == 0) {
    m["comm.serialize_us"] = 0.0;
  }
  return m;
}

/// The threaded runtime on the same cell, no stragglers: p50 iteration us.
double threaded_floor_p50(const ExperimentConfig& config,
                          std::optional<double>* final_loss) {
  auto cell = build_train_cell(config, nullptr);
  coupon::runtime::ThreadCluster cluster(*cell->scheme, *cell->source,
                                         config.seed + 42);
  auto optimizer = make_optimizer(config);
  LossProbe probe;
  probe.stamps.reserve(config.iterations + 2);
  coupon::runtime::TrainOptions options;
  options.iterations = config.iterations;
  options.loss_fn =
      make_loss_fn(cell->problem.dataset, *config.target_loss, probe, nullptr);
  options.target_loss = config.target_loss;
  const auto report = cluster.train(*optimizer, options);
  *final_loss = report.final_loss;
  std::vector<double> iter_us;
  append_latencies(probe, report.iterations_run, -1, iter_us);
  return median(iter_us);
}

/// A bare compute -> step -> evaluate loop over the serial reference
/// gradient: us per iteration.
double serial_floor_us(const ExperimentConfig& config) {
  auto cell = build_train_cell(config, nullptr);
  auto optimizer = make_optimizer(config);
  const coupon::data::Dataset& dataset = cell->problem.dataset;
  const std::function<double(std::span<const double>)> loss =
      [&dataset](std::span<const double> w) {
        return coupon::opt::logistic_loss(dataset, w);
      };
  const std::int64_t start = now_ns();
  coupon::opt::train(*optimizer,
                     coupon::engine::reference_oracle(*cell->source),
                     config.iterations, &loss);
  return static_cast<double>(now_ns() - start) * 1e-3 /
         static_cast<double>(config.iterations);
}

/// Exact oracle and simulated E[T] of the live delay injection: the
/// injected sleeps as a simulated cluster with no network cost.
void print_reference(const std::string& scheme_name,
                     const coupon::core::Scheme& scheme,
                     const coupon::runtime::StragglerInjection& injection,
                     double measured_p50_us, double measured_mean_us) {
  coupon::simulate::ClusterConfig cluster;
  cluster.compute_shift = injection.shift_ms_per_unit * 1e-3;
  cluster.compute_straggle = injection.straggle * 1e3;
  cluster.unit_transfer_seconds = 0.0;
  cluster.broadcast_seconds = 0.0;
  coupon::analytic::PredictOptions options;
  options.quantiles = true;
  const auto prediction = coupon::analytic::predict(scheme, cluster, options);
  coupon::stats::Rng rng(7);
  coupon::simulate::RunOptions run_options;
  run_options.iterations = 20000;
  const auto sim =
      coupon::simulate::simulate_run(scheme, cluster, run_options, rng);
  std::printf(
      "reference live_straggler scheme=%s measured_p50_us=%.1f "
      "measured_mean_us=%.1f analytic_ET_us=%.1f analytic_p50_us=%.1f "
      "analytic_EK=%.3f simulated_ET_us=%.1f simulated_EK=%.3f\n",
      scheme_name.c_str(), measured_p50_us, measured_mean_us,
      prediction ? prediction->expected_time * 1e6 : -1.0,
      prediction && prediction->has_quantiles ? prediction->p50 * 1e6 : -1.0,
      prediction ? prediction->expected_workers : -1.0,
      sim.total_time / static_cast<double>(run_options.iterations) * 1e6,
      sim.workers_heard.mean());
}

Result run_live(const Args& args, const LiveSpec& spec) {
  Result result;
  Outcome& outcome = result.outcome;
  if (!coupon::runtime::ProcessCluster::supported()) {
    throw std::runtime_error("the process runtime is unavailable here");
  }
  const ExperimentConfig config = live_config("bcc", spec, args.seed);
  const auto scenario = coupon::driver::ScenarioRegistry::instance().build(
      config.scenario, config.num_workers);
  const auto quiet = coupon::driver::ScenarioRegistry::instance().build(
      "no_stragglers", config.num_workers);

  std::vector<double> setups;
  auto set_up = [&](int repeats) {
    for (int i = 0; i < repeats; ++i) {
      setups.push_back(live_setup_seconds(config, quiet, outcome));
    }
  };

  // The same cell trained by the simulated runtime: the live final loss
  // must match it bit for bit.
  ExperimentConfig sim_config = config;
  sim_config.runtime = "sim";
  sim_config.train = true;
  const RunRecord sim = coupon::driver::run_experiment(sim_config);

  auto cell = build_train_cell(config, nullptr);

  if (!args.trace) {
    std::vector<double> iter_us;
    std::vector<double> to_target;
    Units units;  // one unit: one ProcessCluster::train call
    const std::int64_t start = now_ns();
    while (units.rates.empty() || seconds_since(start) < args.seconds) {
      LiveRun run = live_train(*cell, scenario, spec.iterations, nullptr);
      count_live(run, outcome);
      const auto& report = run.result.report;
      units.add(run.iter_us);
      if (units.rates.size() == 1) {
        result.peak_rss_mb = peak_rss_mb();
      }
      set_up(kLiveSetupsPerUnit);
      iter_us.insert(iter_us.end(), run.iter_us.begin(), run.iter_us.end());
      if (report.time_to_target) {
        to_target.push_back(*report.time_to_target);
      }
      outcome.check(report.final_loss && sim.final_loss &&
                        same_bits(*report.final_loss, *sim.final_loss),
                    "process final loss != simulated final loss");
      outcome.check(report.time_to_target.has_value(),
                    "live run never reached the target loss");
    }
    result.metrics.set("iters_per_s", median(units.rates), "1/s");
    result.metrics.set("iter_us_p50", median(units.p50s), "us");
    result.metrics.set("iter_us_p99", median(units.p99s), "us");
    result.metrics.set("time_to_target_s",
                       to_target.empty() ? 0.0 : median(to_target), "s");
    result.metrics.set("setup_s", median(setups), "s");
    std::cerr << args.workload << ": " << units.rates.size() << " runs, "
              << iter_us.size() << " iteration latency samples, "
              << setups.size() << " set-ups (ms p10 "
              << quantile(setups, 0.1) * 1e3 << ", p50 "
              << median(setups) * 1e3 << ", p90 "
              << quantile(setups, 0.9) * 1e3 << ")\n";
    if (scenario.straggler.enabled) {
      print_reference("bcc", *cell->scheme, scenario.straggler,
                      median(iter_us), mean_of(iter_us));
      const ExperimentConfig uncoded = live_config("uncoded", spec, args.seed);
      auto uncoded_cell = build_train_cell(uncoded, nullptr);
      LiveRun ref =
          live_train(*uncoded_cell, scenario, spec.iterations, nullptr);
      print_reference("uncoded", *uncoded_cell->scheme, scenario.straggler,
                      median(ref.iter_us), mean_of(ref.iter_us));
    }
    return result;
  }

  set_up(kSetupRepeats);
  Tracer tracer;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double iterations = 0.0;
  double heard = 0.0;
  double passes = 0.0;
  const std::int64_t start = now_ns();
  while (passes == 0.0 || seconds_since(start) < args.seconds) {
    LiveRun plain = live_train(*cell, scenario, spec.iterations, nullptr);
    count_live(plain, outcome);
    untraced_s += plain.wall_s;
    std::unique_ptr<TrainCell> traced_cell;
    LiveRun traced;
    const std::int64_t t0 = now_ns();
    {
      Scope root(tracer, Kind::kPass);
      {
        Scope setup(tracer, Kind::kCellSetup);
        traced_cell = build_train_cell(config, &tracer);
      }
      traced = live_train(*traced_cell, scenario, spec.iterations, &tracer);
    }
    traced_s += seconds_since(t0);
    count_live(traced, outcome);
    const auto& a = plain.result.report;
    const auto& b = traced.result.report;
    outcome.check(a.final_loss && b.final_loss &&
                      same_bits(*a.final_loss, *b.final_loss) &&
                      same_bits(*b.final_loss, *sim.final_loss),
                  "traced live run differs from untraced or simulated");
    iterations += static_cast<double>(b.iterations_run);
    heard += b.workers_heard.mean() * static_cast<double>(b.iterations_run);
    passes += 1.0;
  }
  std::map<std::string, double> extra = comm_metrics(*cell->scheme,
                                                     config.features);
  extra["trace_overhead"] = traced_s / untraced_s - 1.0;
  extra["runtime.setup_ms"] = median(setups) * 1e3;
  extra["runtime.useful_msg_ratio"] =
      heard / iterations / static_cast<double>(config.num_workers);
  ExperimentConfig floor_config = config;
  floor_config.iterations = kFloorIterations;
  std::optional<double> threaded_loss;
  extra["runtime.threaded_floor_us_p50"] =
      threaded_floor_p50(floor_config, &threaded_loss);
  extra["runtime.serial_floor_us"] = serial_floor_us(floor_config);
  emit_layer_metrics(tracer, iterations, passes, heard / iterations, 0.0,
                     extra, result.metrics);
  write_spans(args, tracer);
  return result;
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Result result;
  if (args.workload == "sweep_sim") {
    result = run_sweep_sim(args);
  } else if (args.workload == "train_sim") {
    result = run_train_sim(args);
  } else if (args.workload == "live_wire") {
    result = run_live(args, {"no_stragglers", 20000});
  } else if (args.workload == "live_straggler") {
    result = run_live(args, {"shifted_exp", 1000});
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (!args.trace) {
    result.metrics.set("peak_rss_mb", result.peak_rss_mb, "MB");
  }
  const Outcome& o = result.outcome;
  const bool correct = o.failures.empty();
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::size_t>(1, o.attempted)
     << ", \"failed\": " << o.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : result.metrics.rows) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << json_number(value_unit.first) << ", \"unit\": \"" << value_unit.second
       << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
