#include "compose.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"
#include "planner/planner.hpp"
#include "planner/profiler.hpp"

namespace perfbench {

using namespace pac;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Times every record() into the wrapped shard as a cache.record span.
class TimedRecorder : public pipeline::ActivationRecorder {
 public:
  TimedRecorder(cache::ActivationCache& inner, SpanLog& spans, int parent,
                std::atomic<std::uint64_t>& bytes)
      : inner_(inner), spans_(spans), parent_(parent), bytes_(bytes) {}

  void record(const std::vector<std::int64_t>& sample_ids,
              std::int64_t block_index, const Tensor& hidden) override {
    const double start = spans_.now_seconds();
    inner_.record(sample_ids, block_index, hidden);
    spans_.add("cache.record", parent_, start, spans_.now_seconds());
    bytes_ += hidden.byte_size();
  }

 private:
  cache::ActivationCache& inner_;
  SpanLog& spans_;
  int parent_;
  std::atomic<std::uint64_t>& bytes_;
};

// Times every fetch() from the wrapped shard as a cache.fetch span;
// prefetch hints pass through untimed.
class TimedSource : public pipeline::ActivationSource {
 public:
  TimedSource(const cache::ActivationCache& inner, SpanLog& spans, int parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  std::vector<Tensor> fetch(
      const std::vector<std::int64_t>& sample_ids) const override {
    const double start = spans_.now_seconds();
    std::vector<Tensor> out = inner_.fetch(sample_ids);
    spans_.add("cache.fetch", parent_, start, spans_.now_seconds());
    return out;
  }
  void prefetch(const std::vector<std::int64_t>& sample_ids) const override {
    inner_.prefetch(sample_ids);
  }

 private:
  const cache::ActivationCache& inner_;
  SpanLog& spans_;
  int parent_;
};

}  // namespace

SpanLog::SpanLog(std::int64_t session_id)
    : session_id_(session_id), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::begin(const std::string& name, int parent) {
  const double start = now_seconds();
  std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back(Span{name, parent, start, -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  const double end = now_seconds();
  std::lock_guard<std::mutex> guard(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void SpanLog::add(const std::string& name, int parent, double start,
                  double end) {
  std::lock_guard<std::mutex> guard(mutex_);
  spans_.push_back(Span{name, parent, start, end});
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= 0.0) out.push_back(s.end - s.start);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  PAC_CHECK(f != nullptr, "cannot write spans to " << path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"session\":%lld}\n",
                 i > 0 ? "," : "", i, s.name.c_str(), s.start, s.end,
                 s.parent, static_cast<long long>(session_id_));
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

Composition compose_session(const SessionShape& shape,
                            const data::Dataset& dataset,
                            dist::EdgeCluster& cluster,
                            const planner::PlanEstimate& estimate,
                            std::int64_t batch, SpanLog& spans) {
  const core::SessionConfig& cfg = shape.config;
  const std::int64_t micro = std::min(cfg.num_micro_batches, batch);
  const model::TaskSpec task{dataset.info().kind, dataset.info().num_classes};
  auto factory = [&cfg, task] {
    return std::make_unique<model::Model>(cfg.model, cfg.technique, task,
                                          cfg.model_seed);
  };
  const std::vector<int> alive = cluster.alive_ranks();
  Composition out;
  std::map<std::string, double>& m = out.metrics;
  const int root = spans.begin("session", -1);

  // ---- profile + plan, as Session::plan_over_alive does ----
  int span = spans.begin("planner.profile", root);
  std::vector<planner::BlockProfile> blocks;
  {
    auto probe = factory();
    const std::int64_t rows = std::max<std::int64_t>(1, batch / micro);
    std::vector<std::int64_t> idx(static_cast<std::size_t>(
        std::min<std::int64_t>(rows, dataset.train_size())));
    std::iota(idx.begin(), idx.end(), 0);
    blocks = planner::profile_model(
        *probe, dataset.make_train_batch(idx).tokens, /*iters=*/3);
  }
  spans.end(span);
  span = spans.begin("planner.plan", root);
  planner::PlannerInput input;
  input.blocks = blocks;
  input.num_devices = static_cast<int>(alive.size());
  input.device_budget_bytes = shape.device_budget_bytes;
  input.num_micro_batches = micro;
  input.network = cfg.network;
  input.device_scales.assign(alive.size(), 1.0);
  // Timed only: the handed-over plan is what executes.
  (void)planner::plan_hybrid(input);
  spans.end(span);

  // ---- phase 1 with recording ----
  const pipeline::ParallelPlan& plan = estimate.plan;
  std::vector<std::unique_ptr<cache::ActivationCache>> shards(
      static_cast<std::size_t>(cluster.size()));
  for (int r : alive) {
    cache::CacheConfig cc;
    cc.num_blocks = cfg.model.encoder_layers + 1;
    cc.disk_backed = cfg.cache_disk_backed;
    cc.dtype = cfg.cache_dtype;
    if (cc.disk_backed) {
      cc.directory = cfg.cache_directory + "/device_" + std::to_string(r);
    }
    cc.ledger = &cluster.ledger(r);
    shards[static_cast<std::size_t>(r)] =
        std::make_unique<cache::ActivationCache>(cc);
  }
  const int phase1_span = spans.begin("pipeline.phase1", root);
  std::atomic<std::uint64_t> record_bytes{0};
  std::vector<std::unique_ptr<TimedRecorder>> timed_recorders;
  std::vector<pipeline::ActivationRecorder*> recorders(
      static_cast<std::size_t>(cluster.size()), nullptr);
  for (int r : alive) {
    timed_recorders.push_back(std::make_unique<TimedRecorder>(
        *shards[static_cast<std::size_t>(r)], spans, phase1_span,
        record_bytes));
    recorders[static_cast<std::size_t>(r)] = timed_recorders.back().get();
  }
  pipeline::RunConfig run1;
  run1.plan = plan;
  run1.schedule = cfg.schedule;
  run1.allreduce = cfg.allreduce;
  run1.async_comm = cfg.async_comm;
  run1.allreduce_bucket_bytes = cfg.allreduce_bucket_bytes;
  run1.batch_size = batch;
  run1.epochs = 1;
  run1.lr = cfg.lr;
  run1.shuffle_seed = cfg.shuffle_seed;
  run1.run_eval = false;
  const pipeline::RunResult phase1 =
      pipeline::run_training(cluster, dataset, factory, run1, &recorders);
  spans.end(phase1_span);

  // ---- redistribution ----
  span = spans.begin("cache.redistribute", root);
  const auto target = cache::modulo_sharding_over(alive);
  cache::RedistStats redist;
  {
    std::mutex stats_mutex;
    cluster.run([&](dist::DeviceContext& ctx) {
      const cache::RedistStats s = cache::redistribute_cache(
          ctx, *shards[static_cast<std::size_t>(ctx.rank)], target, alive);
      std::lock_guard<std::mutex> guard(stats_mutex);
      redist.items_sent += s.items_sent;
      redist.items_received += s.items_received;
      redist.payload_bytes_sent += s.payload_bytes_sent;
    });
  }
  spans.end(span);
  std::uint64_t resident = 0;
  std::uint64_t total = 0;
  for (const auto& shard : shards) {
    if (shard == nullptr) continue;
    resident += shard->memory_bytes();
    total += shard->total_bytes();
  }

  // ---- phase 2 from the cache ----
  const int phase2_span = spans.begin("pipeline.phase2", root);
  std::vector<std::vector<std::int64_t>> assignments(
      static_cast<std::size_t>(cluster.size()));
  for (std::int64_t s = 0; s < dataset.train_size(); ++s) {
    assignments[static_cast<std::size_t>(target(s))].push_back(s);
  }
  std::vector<std::unique_ptr<TimedSource>> timed_sources;
  std::vector<const pipeline::ActivationSource*> sources(
      static_cast<std::size_t>(cluster.size()), nullptr);
  for (int r : alive) {
    timed_sources.push_back(std::make_unique<TimedSource>(
        *shards[static_cast<std::size_t>(r)], spans, phase2_span));
    sources[static_cast<std::size_t>(r)] = timed_sources.back().get();
  }
  const std::map<std::string, Tensor> adapters = phase1.trainable_values;
  auto phase2_factory = [&factory, &adapters] {
    auto model = factory();
    model::apply_parameter_overrides(*model, adapters);
    return model;
  };
  pipeline::RecoveryLog recovery;
  pipeline::CachedRunConfig run2;
  run2.device_batch_size = std::max<std::int64_t>(
      1, batch / static_cast<std::int64_t>(alive.size()));
  run2.epochs = cfg.epochs - 1;
  run2.lr = cfg.lr;
  run2.allreduce = cfg.allreduce;
  run2.prefetch = cfg.async_comm && cfg.cache_prefetch;
  run2.shuffle_seed = cfg.shuffle_seed + 991;
  run2.run_eval = cfg.run_eval;
  run2.recovery = &recovery;
  const pipeline::RunResult phase2 = pipeline::run_cached_data_parallel(
      cluster, dataset, phase2_factory, sources, assignments, run2);
  spans.end(phase2_span);
  spans.end(root);

  out.epoch_losses = phase1.epoch_losses;
  for (double l : recovery.committed_losses()) out.epoch_losses.push_back(l);
  out.seconds = spans.durations("session").front();

  // ---- per-layer metrics ----
  m["planner.profile_s"] = spans.durations("planner.profile").front();
  m["planner.plan_s"] = spans.durations("planner.plan").front();
  const std::int64_t minibatches =
      (dataset.train_size() + batch - 1) / batch;
  const double phase1_s = spans.durations("pipeline.phase1").front();
  m["pipeline.phase1_s"] = phase1_s;
  m["pipeline.minibatch_s"] = phase1_s / static_cast<double>(minibatches);
  m["pipeline.phase1_comm_mib"] = static_cast<double>(phase1.comm_bytes) / kMiB;
  const double phase2_s = spans.durations("pipeline.phase2").front();
  m["pipeline.phase2_s"] = phase2_s;
  m["pipeline.phase2_epoch_s"] = phase2_s / (cfg.epochs - 1);
  m["pipeline.phase2_comm_mib"] = static_cast<double>(phase2.comm_bytes) / kMiB;

  // Prediction against execution, with both bases reported.
  m["planner.minibatch_s_planned"] = estimate.minibatch_seconds;
  m["planner.minibatch_error"] =
      m["pipeline.minibatch_s"] / estimate.minibatch_seconds;
  double planned_max = 0.0;
  double measured_max = 0.0;
  double memory_error = 0.0;
  for (int r : plan.participating_ranks()) {
    const auto stage = static_cast<std::size_t>(plan.stage_of_rank(r));
    const auto planned =
        static_cast<double>(estimate.stage_memory_bytes.at(stage));
    const auto measured = static_cast<double>(
        phase1.peak_memory_per_device.at(static_cast<std::size_t>(r)));
    planned_max = std::max(planned_max, planned);
    measured_max = std::max(measured_max, measured);
    memory_error = std::max(memory_error, measured / planned);
  }
  m["planner.memory_mib_planned"] = planned_max / kMiB;
  m["pipeline.phase1_peak_mib"] = measured_max / kMiB;
  m["planner.memory_error"] = memory_error;

  const std::vector<double> fetches = spans.durations("cache.fetch");
  m["cache.fetch_calls"] = static_cast<double>(fetches.size());
  m["cache.fetch_ms_p50"] = quantile(fetches, 0.50) * 1e3;
  m["cache.fetch_ms_p99"] = quantile(fetches, 0.99) * 1e3;
  m["cache.fetch_s"] = sum(fetches);
  const std::vector<double> records = spans.durations("cache.record");
  m["cache.record_calls"] = static_cast<double>(records.size());
  m["cache.record_s"] = sum(records);
  m["cache.record_mib"] = static_cast<double>(record_bytes.load()) / kMiB;
  m["cache.resident_mib"] = static_cast<double>(resident) / kMiB;
  m["cache.total_mib"] = static_cast<double>(total) / kMiB;
  m["cache.redist_s"] = spans.durations("cache.redistribute").front();
  m["cache.redist_items"] = static_cast<double>(redist.items_sent);
  m["cache.redist_mib"] = static_cast<double>(redist.payload_bytes_sent) / kMiB;

  std::vector<double> fwd;
  std::vector<double> bwd;
  for (const planner::BlockProfile& b : blocks) {
    fwd.push_back(b.t_fwd * 1e3);
    bwd.push_back(b.t_bwd * 1e3);
  }
  m["nn.block_fwd_ms_p50"] = quantile(fwd, 0.5);
  m["nn.block_bwd_ms_p50"] = quantile(bwd, 0.5);
  return out;
}

std::string encode_plan(const planner::PlanEstimate& plan) {
  std::ostringstream os;
  os.precision(17);
  os << plan.plan.num_micro_batches << ' ' << plan.minibatch_seconds << ' '
     << plan.plan.stages.size();
  for (std::size_t s = 0; s < plan.plan.stages.size(); ++s) {
    const pipeline::StageAssignment& st = plan.plan.stages[s];
    os << ' ' << st.block_begin << ' ' << st.block_end << ' '
       << plan.stage_memory_bytes.at(s) << ' ' << st.devices.size();
    for (int d : st.devices) os << ' ' << d;
  }
  return os.str();
}

planner::PlanEstimate decode_plan(const std::string& text) {
  std::istringstream in(text);
  planner::PlanEstimate est;
  std::size_t stages = 0;
  in >> est.plan.num_micro_batches >> est.minibatch_seconds >> stages;
  for (std::size_t s = 0; s < stages; ++s) {
    pipeline::StageAssignment st;
    std::uint64_t memory = 0;
    std::size_t devices = 0;
    in >> st.block_begin >> st.block_end >> memory >> devices;
    st.devices.resize(devices);
    for (int& d : st.devices) in >> d;
    est.plan.stages.push_back(st);
    est.stage_memory_bytes.push_back(memory);
  }
  PAC_CHECK(!in.fail() && stages > 0, "malformed plan '" << text << "'");
  est.feasible = true;
  return est;
}

}  // namespace perfbench
