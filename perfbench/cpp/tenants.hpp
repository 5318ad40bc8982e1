// The service child: replays a job schedule onto a JobDispatcher and
// reports every job's progress as JSON lines the moment it is observed.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct TenantArgs {
  std::string schedule_path;  // lines: "<job> <shape> <arrival offset s>"
  double t0 = 0.0;            // CLOCK_MONOTONIC time of offset 0
  std::uint64_t seed = 0;
  std::string cache_dir;      // spill root for disk-backed job caches
  // Empty: the tenant fleet, 4 devices of 512 MiB.  Otherwise the fleet
  // matches this shape's cluster (devices and per-device budget).
  std::string fleet_shape;
};

// Emits {"ev":"ready"} before the first submit, then per job "submit",
// "admit" and "done" lines.  Returns the process exit code.
int run_tenants(const TenantArgs& args);

}  // namespace perfbench
