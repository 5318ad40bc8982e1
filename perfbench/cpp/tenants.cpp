#include "tenants.hpp"

#include <chrono>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "service/dispatcher.hpp"
#include "shapes.hpp"

namespace perfbench {

using namespace pac;

namespace {

struct Scheduled {
  std::int64_t job = 0;
  std::string shape;
  double offset_s = 0.0;
};

struct Outstanding {
  std::int64_t job = 0;
  service::JobId id = -1;
  bool admitted = false;
};

void sleep_until_monotonic(double t) {
  const double wait = t - monotonic_seconds();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

JsonLine done_line(const Outstanding& o, const service::JobInfo& info,
                   const service::DispatcherStats& stats) {
  JsonLine line;
  line.str("ev", "done")
      .num("job", static_cast<double>(o.job))
      .num("mono", monotonic_seconds())
      .str("state", service::job_state_name(info.state))
      .flag("admitted", info.admit_seq >= 0)
      .num("queue_wait_s", info.queue_wait_seconds)
      .num("queue_depth_hw", static_cast<double>(stats.queue_depth_high_water))
      .num("running_hw", static_cast<double>(stats.running_high_water));
  if (!info.outcome.ok) line.str("error", info.outcome.error);
  if (info.state == service::JobState::kRejected) {
    line.str("error", info.reject_reason);
  }
  if (info.outcome.report.has_value()) {
    const core::SessionReport& r = *info.outcome.report;
    line.nums("losses", r.epoch_losses)
        .num("eval", r.eval_metric)
        .str("plan", r.plan.plan.to_string())
        .num("effective_batch", static_cast<double>(r.effective_batch_size))
        .num("oom_retries", r.oom_retries)
        .num("peak_device_bytes", static_cast<double>(peak_device_bytes(r)));
  }
  return line;
}

}  // namespace

int run_tenants(const TenantArgs& args) {
  std::vector<Scheduled> schedule;
  {
    std::ifstream in(args.schedule_path);
    PAC_CHECK(in.good(), "cannot read schedule " << args.schedule_path);
    Scheduled s;
    while (in >> s.job >> s.shape >> s.offset_s) schedule.push_back(s);
  }
  // One dataset per shape, shared by that shape's jobs (read-only).
  std::map<std::string, SessionShape> shapes;
  std::map<std::string, std::unique_ptr<data::SyntheticGlueDataset>> datasets;
  for (const Scheduled& s : schedule) {
    if (shapes.count(s.shape) != 0) continue;
    shapes.emplace(s.shape, make_shape(s.shape, args.seed, ""));
    datasets.emplace(s.shape, std::make_unique<data::SyntheticGlueDataset>(
                                  shapes.at(s.shape).data));
  }

  int fleet_devices = 4;
  std::uint64_t fleet_budget = 512ULL << 20;
  if (!args.fleet_shape.empty()) {
    const SessionShape match = make_shape(args.fleet_shape, args.seed, "");
    fleet_devices = match.devices;
    fleet_budget = match.device_budget_bytes;
  }
  service::Fleet fleet(fleet_devices, fleet_budget);
  service::DispatcherConfig dispatcher_config;
  dispatcher_config.num_workers = 4;
  service::JobDispatcher dispatcher(fleet, dispatcher_config);

  std::mutex mutex;  // guards outstanding and generator_done
  std::vector<Outstanding> outstanding;
  bool generator_done = false;

  // Polls every outstanding job each millisecond and reports admission and
  // terminal states as soon as it sees them.
  std::thread monitor([&] {
    for (;;) {
      std::vector<Outstanding> snapshot;
      bool done = false;
      {
        std::lock_guard<std::mutex> guard(mutex);
        snapshot = outstanding;
        done = generator_done;
      }
      if (done && snapshot.empty()) return;
      for (Outstanding& o : snapshot) {
        const service::JobInfo info = dispatcher.info(o.id);
        const bool admitted = info.admit_seq >= 0;
        if (admitted && !o.admitted) {
          emit(JsonLine()
                   .str("ev", "admit")
                   .num("job", static_cast<double>(o.job))
                   .num("mono", monotonic_seconds())
                   .num("queue_wait_s", info.queue_wait_seconds));
        }
        const bool terminal = service::job_state_terminal(info.state);
        if (terminal) emit(done_line(o, info, dispatcher.stats()));
        std::lock_guard<std::mutex> guard(mutex);
        for (auto it = outstanding.begin(); it != outstanding.end(); ++it) {
          if (it->id != o.id) continue;
          it->admitted = admitted;
          if (terminal) outstanding.erase(it);
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  auto submit = [&](const Scheduled& s) {
    const double due = args.t0 + s.offset_s;
    sleep_until_monotonic(due);
    const SessionShape& shape = shapes.at(s.shape);
    service::JobSpec spec;
    spec.name = s.shape + "#" + std::to_string(s.job);
    spec.request.min_devices = shape.devices;
    spec.request.max_devices = shape.devices;
    spec.request.bytes_per_device = 0;  // exclusive use of each device
    spec.dataset = datasets.at(s.shape).get();
    spec.session = shape.config;
    if (spec.session->cache_disk_backed) {
      spec.session->cache_directory =
          args.cache_dir + "/job_" + std::to_string(s.job);
    }
    const double before = monotonic_seconds();
    const service::JobId id = dispatcher.submit(std::move(spec));
    const double after = monotonic_seconds();
    emit(JsonLine()
             .str("ev", "submit")
             .num("job", static_cast<double>(s.job))
             .num("mono", before)
             .num("submit_us", (after - before) * 1e6)
             .num("late_s", before - due));
    std::lock_guard<std::mutex> guard(mutex);
    outstanding.push_back(Outstanding{s.job, id, false});
  };

  // The monitor must be joined on every path, so a submit that throws
  // ends the schedule early instead of unwinding past the thread.
  std::exception_ptr failure;
  emit(JsonLine().str("ev", "ready").num("mono", monotonic_seconds()));
  try {
    for (const Scheduled& s : schedule) submit(s);
  } catch (...) {
    failure = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> guard(mutex);
    generator_done = true;
  }
  monitor.join();
  if (failure) std::rethrow_exception(failure);
  emit(JsonLine().str("ev", "end").num("mono", monotonic_seconds()));
  return 0;
}

}  // namespace perfbench
