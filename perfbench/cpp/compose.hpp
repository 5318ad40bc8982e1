// The traced run: one session's final attempt recomposed from the public
// layer entry points, with a span at every layer boundary.
//
//   session
//   ├── planner.profile      planner::profile_model
//   ├── planner.plan         planner::plan_hybrid
//   ├── pipeline.phase1      pipeline::run_training
//   │     └── cache.record   (one per ActivationRecorder::record call)
//   ├── cache.redistribute   cache::redistribute_cache on every rank
//   └── pipeline.phase2      pipeline::run_cached_data_parallel
//         └── cache.fetch    (one per ActivationSource::fetch call)
//
// Spans live in memory and are written as one JSON array when the
// composition ends.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "planner/planner.hpp"
#include "shapes.hpp"

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(std::int64_t session_id);
  // Opens a span and returns its id; close it with end().
  int begin(const std::string& name, int parent);
  void end(int id);
  // Records an already-timed span (start/end from now_seconds()).
  void add(const std::string& name, int parent, double start, double end);
  double now_seconds() const;
  // Durations in seconds of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = -1.0;
  };
  std::int64_t session_id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

struct Composition {
  std::vector<double> epoch_losses;
  double seconds = 0.0;  // root span, profile through phase 2
  // Per-layer metrics by name (planner.*, pipeline.*, cache.*, nn.*).
  std::map<std::string, double> metrics;
};

// Recomposes a session's final attempt on `cluster`: profiles and plans as
// Session::run() does, then executes `plan` (the attempt's
// SessionReport::plan) at `batch` (its effective_batch_size).
Composition compose_session(const SessionShape& shape,
                            const pac::data::Dataset& dataset,
                            pac::dist::EdgeCluster& cluster,
                            const pac::planner::PlanEstimate& plan,
                            std::int64_t batch, SpanLog& spans);

// A PlanEstimate as one line of text (plan, micro count, planned mini-batch
// time and stage memory), so a session child can hand its plan to a
// compose child.
std::string encode_plan(const pac::planner::PlanEstimate& plan);
pac::planner::PlanEstimate decode_plan(const std::string& text);

}  // namespace perfbench
