// pac_perfbench: one benchmark operation per process, so an abort or a
// signal costs exactly one operation.  run.py execs it in three modes:
//
//   session  --shape S --seed N --dir D
//       One Session::run(); prints "ready" right before the call and a
//       "session" line with the report afterwards.
//   compose  --shape S --seed N --dir D --plan CODE --batch B
//            --spans FILE --session-id K
//       A session's final attempt (the plan_code and effective_batch of a
//       "session" line) recomposed from the layer entry points with spans
//       (compose.hpp); prints a "compose" line with the epoch losses and
//       the per-layer metrics, and writes the spans to FILE.
//   tenants  --schedule FILE --t0 T --seed N --dir D [--fleet-shape S]
//       Replays a job schedule onto a JobDispatcher (tenants.hpp).
//
// Every line on stdout is one JSON object.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common/logging.hpp"
#include "compose.hpp"
#include "shapes.hpp"
#include "tenants.hpp"

namespace {

using namespace pac;
using namespace perfbench;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      PAC_CHECK(key.rfind("--", 0) == 0, "expected --key, got " << key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    PAC_CHECK(it != values_.end(), "missing --" << key);
    return it->second;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::uint64_t u64(const std::string& key) const {
    return std::strtoull(get(key).c_str(), nullptr, 0);
  }

 private:
  std::map<std::string, std::string> values_;
};

JsonLine report_line(const char* ev, const core::SessionReport& r,
                     double session_s) {
  JsonLine line;
  line.str("ev", ev)
      .num("session_s", session_s)
      .num("attempt_s", r.total_seconds)
      .str("plan", r.plan.plan.to_string())
      .str("plan_code", encode_plan(r.plan))
      .num("effective_batch", static_cast<double>(r.effective_batch_size))
      .num("oom_retries", r.oom_retries)
      .nums("losses", r.epoch_losses)
      .num("eval", r.eval_metric)
      .num("peak_device_bytes", static_cast<double>(peak_device_bytes(r)));
  return line;
}

int run_session(const Args& args) {
  const SessionShape shape =
      make_shape(args.get("shape"), args.u64("seed"), args.get("dir"));
  const data::SyntheticGlueDataset dataset(shape.data);
  auto cluster = make_cluster(shape);
  core::Session session(*cluster, dataset, shape.config);
  emit(JsonLine().str("ev", "ready").num("mono", monotonic_seconds()));
  const double start = monotonic_seconds();
  const core::SessionReport report = session.run();
  const double end = monotonic_seconds();
  emit(report_line("session", report, end - start).num("mono", end));
  return 0;
}

int run_compose(const Args& args) {
  const SessionShape shape =
      make_shape(args.get("shape"), args.u64("seed"), args.get("dir"));
  const data::SyntheticGlueDataset dataset(shape.data);
  auto cluster = make_cluster(shape);
  const planner::PlanEstimate plan = decode_plan(args.get("plan"));
  SpanLog spans(static_cast<std::int64_t>(args.u64("session-id")));
  const Composition c = compose_session(
      shape, dataset, *cluster, plan,
      static_cast<std::int64_t>(args.u64("batch")), spans);
  spans.write(args.get("spans"));
  JsonLine line;
  line.str("ev", "compose")
      .num("compose_s", c.seconds)
      .nums("losses", c.epoch_losses);
  for (const auto& [name, value] : c.metrics) line.num("m." + name, value);
  emit(line);
  return 0;
}

int run_tenant_mode(const Args& args) {
  TenantArgs t;
  t.schedule_path = args.get("schedule");
  t.t0 = std::strtod(args.get("t0").c_str(), nullptr);
  t.seed = args.u64("seed");
  t.cache_dir = args.get("dir");
  t.fleet_shape = args.get("fleet-shape", "");
  return run_tenants(t);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    const Args args(argc, argv);
    if (mode == "session") return run_session(args);
    if (mode == "compose") return run_compose(args);
    if (mode == "tenants") return run_tenant_mode(args);
    std::fprintf(stderr, "usage: pac_perfbench session|compose|tenants ...\n");
    return 2;
  } catch (const std::exception& e) {
    // An exception is one failed operation; run.py reports its message.
    emit(JsonLine().str("ev", "error").str("what", e.what()));
    return 3;
  }
}
