#pragma once

// Bench-side tracing for the traced (--trace 1) runs: an in-memory span
// recorder and decorators for the library's public virtual seams. None of
// this is linked into the program under test. Every decorator forwards
// each call unchanged, so a traced run must reproduce the untraced outputs
// bit for bit; the harness checks that on every traced run.
//
// Self time: each span's duration minus the part of it that its child
// spans cover, accumulated per layer (the src/ modules). Hot per-call
// seams (collector offers, latency draws, unit gradients) are counted and
// timed but not stored; coarse spans (pass, set-up, entry-point
// call, iteration) are stored with their parent and written at the end.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/gradient_source.hpp"
#include "core/scheme.hpp"
#include "engine/training_engine.hpp"
#include "opt/optimizer.hpp"
#include "simulate/latency_model.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The src/ modules; kNone collects time no layer explains.
enum class Layer : int {
  kDriver,
  kData,
  kSimulate,
  kCore,
  kEngine,
  kOpt,
  kComm,  // runs in the runtime's own threads: timed directly, no spans
  kRuntime,
  kNone,
  kCount
};

enum class Kind : int {
  kPass,          // one unit of measured work (root)
  kTrainCall,     // TrainingEngine::train / ProcessCluster::train
  kCellSetup,     // scenario + RNG + scheme (+ data) build
  kDataGenerate,  // synthetic dataset generation
  kSweepCall,     // driver::run_sweep: set-up plus the timing-only kernel
  kDraw,          // latency-model draws of one iteration (implicit span)
  kOffer,         // Collector::offer
  kDecode,        // Collector::decode_sum / decode_partial_sum
  kEncode,        // Scheme::encode / encode_into
  kUnitGradient,  // UnitGradientSource calls (cache misses reach here)
  kProvider,      // IterationProvider calls (simulated provider)
  kLiveProvider,  // master time inside a live runtime's transport provider
  kIteration,     // one master iteration: query point to loss evaluation
  kQuery,         // IterativeOptimizer::query_point
  kStep,          // IterativeOptimizer::apply_gradient
  kLoss,          // TrainOptions::loss_fn
  kCount
};

struct KindInfo {
  const char* name;
  Layer layer;
  bool stored;  // keep every span (coarse) or only count and time it
};

inline constexpr std::array<KindInfo, static_cast<int>(Kind::kCount)> kKinds{{
    {"pass", Layer::kNone, true},
    {"train_call", Layer::kNone, true},
    {"cell_setup", Layer::kDriver, true},
    {"data_generate", Layer::kData, true},
    {"run_sweep", Layer::kSimulate, true},
    {"draw", Layer::kSimulate, false},
    {"offer", Layer::kCore, false},
    {"decode", Layer::kCore, false},
    {"encode", Layer::kCore, false},
    {"unit_gradient", Layer::kCore, false},
    {"provider", Layer::kEngine, false},
    {"live_provider", Layer::kRuntime, false},
    {"iteration", Layer::kEngine, true},
    {"query_point", Layer::kOpt, false},
    {"step", Layer::kOpt, false},
    {"loss", Layer::kOpt, false},
}};

inline constexpr std::array<const char*, static_cast<int>(Layer::kCount)>
    kLayerNames{"driver", "data",    "simulate", "core", "engine",
                "opt",    "comm",    "runtime",  "none"};

class Tracer {
 public:
  struct Span {
    Kind kind;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;  // index into spans(), -1 for a root
  };

  Tracer() { clock_cost_ns_ = measure_clock_cost(); }

  void open(Kind kind) {
    flush_draws();
    const std::int64_t t = now_ns();
    std::int32_t span = -1;
    if (kKinds[static_cast<int>(kind)].stored && spans_.size() < kMaxSpans) {
      span = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({kind, t, t, stored_parent()});
    }
    stack_.push_back({kind, t, 0, span});
  }

  void close() {
    flush_draws();
    const std::int64_t t = now_ns();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = t - frame.start;
    const int k = static_cast<int>(frame.kind);
    incl_[k] += duration;
    ++count_[k];
    kind_self_[k] += duration - frame.child_ns;
    self_[static_cast<int>(kKinds[k].layer)] += duration - frame.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
    if (frame.span >= 0) {
      spans_[frame.span].end = t;
    }
  }

  /// Closes the innermost span if it is of `kind`.
  void close_if_top(Kind kind) {
    if (!stack_.empty() && stack_.back().kind == kind) {
      close();
    }
  }

  /// Set-up inside the program: the driver builds every cell of a batch
  /// (scenario, RNG, scheme, kernel state) before the batch's first
  /// latency draw. The first seam call of a cell's set-up opens one
  /// kCellSetup span unless one is open; the next `begin_iteration`
  /// closes it.
  void begin_setup_phase() {
    if (!setup_phase_) {
      open(Kind::kCellSetup);
      setup_phase_ = true;
    }
  }
  void end_setup_phase() {
    if (setup_phase_) {
      setup_phase_ = false;
      close_if_top(Kind::kCellSetup);
    }
  }

  /// Latency draws arrive one call per worker; timing each would double
  /// their cost. The draw phase of an iteration is instead one implicit
  /// span from `begin_draws` to the last `note_draw`, charged to the
  /// enclosing span at the next open/close, less one clock read per draw.
  void begin_draws() {
    flush_draws();
    draws_pending_ = true;
    draw_start_ = draw_end_ = now_ns();
    draw_reads_ = 0;
  }
  void note_draw() {
    draw_end_ = now_ns();
    ++draw_reads_;
  }
  void flush_draws() {
    if (!draws_pending_) {
      return;
    }
    draws_pending_ = false;
    const auto cost = static_cast<std::int64_t>(
        clock_cost_ns_ * static_cast<double>(draw_reads_));
    const std::int64_t duration =
        std::max<std::int64_t>(0, draw_end_ - draw_start_ - cost);
    const int k = static_cast<int>(Kind::kDraw);
    incl_[k] += duration;
    count_[k] += draw_reads_;
    kind_self_[k] += duration;
    self_[static_cast<int>(Layer::kSimulate)] += duration;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
  }

  double incl_ns(Kind kind) const {
    return static_cast<double>(incl_[static_cast<int>(kind)]);
  }
  double count(Kind kind) const {
    return static_cast<double>(count_[static_cast<int>(kind)]);
  }
  double kind_self_ns(Kind kind) const {
    return static_cast<double>(kind_self_[static_cast<int>(kind)]);
  }
  double self_ns(Layer layer) const {
    return static_cast<double>(self_[static_cast<int>(layer)]);
  }

  /// Writes the stored spans as JSON: layer totals plus one
  /// [name, layer, start_ns, end_ns, parent] row per span.
  void write_json(std::ostream& os) const {
    os << "{\"clock_cost_ns\": " << clock_cost_ns_ << ", \"self_ns\": {";
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      os << (l ? ", " : "") << '"' << kLayerNames[l] << "\": " << self_[l];
    }
    os << "}, \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const KindInfo& info = kKinds[static_cast<int>(s.kind)];
      os << (i ? ",\n" : "\n") << "[\"" << info.name << "\", \""
         << kLayerNames[static_cast<int>(info.layer)] << "\", " << s.start
         << ", " << s.end << ", " << s.parent << "]";
    }
    os << "\n]}\n";
  }

 private:
  static constexpr std::size_t kMaxSpans = 2'000'000;

  struct Frame {
    Kind kind;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t span;
  };

  std::int32_t stored_parent() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->span >= 0) {
        return it->span;
      }
    }
    return -1;
  }

  static double measure_clock_cost() {
    constexpr int kReads = 20000;
    const std::int64_t start = now_ns();
    std::int64_t last = start;
    for (int i = 0; i < kReads; ++i) {
      last = now_ns();
    }
    return static_cast<double>(last - start) / kReads;
  }

  static constexpr int kKindCount = static_cast<int>(Kind::kCount);
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::array<std::int64_t, kKindCount> incl_{};
  std::array<std::int64_t, kKindCount> count_{};
  std::array<std::int64_t, kKindCount> kind_self_{};
  std::array<std::int64_t, static_cast<int>(Layer::kCount)> self_{};
  double clock_cost_ns_ = 0.0;
  bool setup_phase_ = false;
  bool draws_pending_ = false;
  std::int64_t draw_start_ = 0;
  std::int64_t draw_end_ = 0;
  std::int64_t draw_reads_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, Kind kind) : tracer_(tracer) { tracer_.open(kind); }
  ~Scope() { tracer_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// Seam decorators. Each forwards every virtual to the wrapped object.

class TracedLatencyModel final : public coupon::simulate::LatencyModel {
 public:
  TracedLatencyModel(std::unique_ptr<coupon::simulate::LatencyModel> inner,
                     Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  void begin_iteration(std::size_t iteration,
                       coupon::stats::Rng& rng) override {
    tracer_.end_setup_phase();
    tracer_.begin_draws();
    inner_->begin_iteration(iteration, rng);
  }
  double sample_compute_seconds(const coupon::simulate::LatencyContext& ctx,
                                coupon::stats::Rng& rng) override {
    const double seconds = inner_->sample_compute_seconds(ctx, rng);
    tracer_.note_draw();
    return seconds;
  }
  coupon::simulate::LatencyLaw law() const override { return inner_->law(); }

 private:
  std::unique_ptr<coupon::simulate::LatencyModel> inner_;
  Tracer& tracer_;
};

/// Mirrors the wrapped collector's K and L counters through the base
/// class's note_offer, so workers_heard()/units_received() read the same.
class TracedCollector final : public coupon::core::Collector {
 public:
  TracedCollector(std::unique_ptr<coupon::core::Collector> inner,
                  Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool offer(std::size_t worker, std::span<const std::int64_t> meta,
             std::span<const double> payload) override {
    bool ready = false;
    {
      Scope scope(tracer_, Kind::kOffer);
      ready = inner_->offer(worker, meta, payload);
    }
    if (inner_->workers_heard() > workers_heard()) {
      note_offer(inner_->units_received() - units_received());
    }
    return ready;
  }
  bool ready() const override { return inner_->ready(); }
  void decode_sum(std::span<double> grad_sum) const override {
    tracer_.close_if_top(Kind::kLiveProvider);
    Scope scope(tracer_, Kind::kDecode);
    inner_->decode_sum(grad_sum);
  }
  bool supports_partial_decode() const override {
    return inner_->supports_partial_decode();
  }
  std::size_t decode_partial_sum(std::span<double> grad_sum) const override {
    tracer_.close_if_top(Kind::kLiveProvider);
    Scope scope(tracer_, Kind::kDecode);
    return inner_->decode_partial_sum(grad_sum);
  }

 protected:
  void do_reset() override { inner_->reset(); }

 private:
  std::unique_ptr<coupon::core::Collector> inner_;
  Tracer& tracer_;
};

class TracedScheme final : public coupon::core::Scheme {
 public:
  TracedScheme(const coupon::core::Scheme& inner, Tracer& tracer)
      : Scheme(inner.placement()), inner_(inner), tracer_(tracer) {}
  /// Owns the wrapped scheme (a registry factory's product).
  TracedScheme(std::unique_ptr<coupon::core::Scheme> inner, Tracer& tracer)
      : TracedScheme(*inner, tracer) {
    owned_ = std::move(inner);
  }

  std::string_view registry_name() const override {
    return inner_.registry_name();
  }
  std::string_view name() const override { return inner_.name(); }
  coupon::comm::Message encode(std::size_t worker,
                               const coupon::core::UnitGradientSource& source,
                               std::span<const double> w) const override {
    Scope scope(tracer_, Kind::kEncode);
    return inner_.encode(worker, source, w);
  }
  void encode_into(std::size_t worker,
                   const coupon::core::UnitGradientSource& source,
                   std::span<const double> w,
                   coupon::comm::Message& out) const override {
    Scope scope(tracer_, Kind::kEncode);
    inner_.encode_into(worker, source, w, out);
  }
  std::optional<std::size_t> encode_group(std::size_t worker) const override {
    return inner_.encode_group(worker);
  }
  std::size_t num_encode_groups() const override {
    return inner_.num_encode_groups();
  }
  double message_units(std::size_t worker) const override {
    return inner_.message_units(worker);
  }
  std::vector<std::int64_t> message_meta(std::size_t worker) const override {
    return inner_.message_meta(worker);
  }
  std::unique_ptr<coupon::core::Collector> make_collector() const override {
    return std::make_unique<TracedCollector>(inner_.make_collector(), tracer_);
  }
  std::optional<double> expected_recovery_threshold() const override {
    return inner_.expected_recovery_threshold();
  }
  std::size_t min_arrivals_hint() const override {
    return inner_.min_arrivals_hint();
  }

 private:
  const coupon::core::Scheme& inner_;
  Tracer& tracer_;
  std::unique_ptr<coupon::core::Scheme> owned_;
};

class TracedSource final : public coupon::core::UnitGradientSource {
 public:
  TracedSource(const coupon::core::UnitGradientSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::size_t num_units() const override { return inner_.num_units(); }
  std::size_t dim() const override { return inner_.dim(); }
  std::size_t num_examples() const override { return inner_.num_examples(); }
  void unit_gradient(std::size_t unit, std::span<const double> w,
                     std::span<double> out) const override {
    Scope scope(tracer_, Kind::kUnitGradient);
    ++unit_gradients_;
    inner_.unit_gradient(unit, w, out);
  }
  void accumulate_unit_gradient(std::size_t unit, std::span<const double> w,
                                std::span<double> out) const override {
    Scope scope(tracer_, Kind::kUnitGradient);
    ++unit_gradients_;
    inner_.accumulate_unit_gradient(unit, w, out);
  }
  void accumulate_units_gradient(std::span<const std::size_t> units,
                                 std::span<const double> w,
                                 std::span<double> out) const override {
    Scope scope(tracer_, Kind::kUnitGradient);
    unit_gradients_ += units.size();
    inner_.accumulate_units_gradient(units, w, out);
  }
  std::span<const double> unit_gradient_view(
      std::size_t unit, std::span<const double> w,
      std::span<double> scratch) const override {
    Scope scope(tracer_, Kind::kUnitGradient);
    ++unit_gradients_;
    return inner_.unit_gradient_view(unit, w, scratch);
  }

  /// Unit gradients computed through this source.
  double unit_gradients() const {
    return static_cast<double>(unit_gradients_);
  }

 private:
  const coupon::core::UnitGradientSource& inner_;
  Tracer& tracer_;
  mutable std::size_t unit_gradients_ = 0;
};

class TracedProvider final : public coupon::engine::IterationProvider {
 public:
  TracedProvider(coupon::engine::IterationProvider& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void begin_iteration(std::size_t iteration,
                       std::span<const double> w) override {
    Scope scope(tracer_, Kind::kProvider);
    inner_.begin_iteration(iteration, w);
  }
  bool next_arrival(coupon::engine::ArrivalView& out) override {
    Scope scope(tracer_, Kind::kProvider);
    return inner_.next_arrival(out);
  }
  coupon::engine::IterationTiming end_iteration() override {
    Scope scope(tracer_, Kind::kProvider);
    return inner_.end_iteration();
  }

 private:
  coupon::engine::IterationProvider& inner_;
  Tracer& tracer_;
};

/// The engine asks for the query point once per iteration, first thing;
/// that call opens the iteration span, which the loss evaluation closes.
/// With `live`, the master's time from the query point to the decode is
/// charged to a runtime span (broadcast, receive and wait happen inside
/// the runtime's own provider, which the harness cannot wrap).
class TracedOptimizer final : public coupon::opt::IterativeOptimizer {
 public:
  TracedOptimizer(coupon::opt::IterativeOptimizer& inner, Tracer& tracer,
                  bool live)
      : inner_(inner), tracer_(tracer), live_(live) {}

  std::span<const double> query_point() const override {
    tracer_.open(Kind::kIteration);
    std::span<const double> w;
    {
      Scope scope(tracer_, Kind::kQuery);
      w = inner_.query_point();
    }
    if (live_) {
      tracer_.open(Kind::kLiveProvider);
    }
    return w;
  }
  void apply_gradient(std::span<const double> grad) override {
    tracer_.close_if_top(Kind::kLiveProvider);
    Scope scope(tracer_, Kind::kStep);
    inner_.apply_gradient(grad);
  }
  std::span<const double> weights() const override { return inner_.weights(); }
  std::size_t iteration() const override { return inner_.iteration(); }

 private:
  coupon::opt::IterativeOptimizer& inner_;
  Tracer& tracer_;
  bool live_;
};

}  // namespace perfbench
