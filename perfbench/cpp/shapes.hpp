// Session shapes the benchmark's workloads are made of, and the helpers
// pac_perfbench modes share (cluster construction, JSON lines, clocks).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "data/dataset.hpp"
#include "dist/cluster.hpp"

namespace perfbench {

// One fine-tuning session: its data, its config and the cluster it runs on.
struct SessionShape {
  std::string name;
  pac::data::DatasetConfig data;
  pac::core::SessionConfig config;
  int devices = 1;
  std::uint64_t device_budget_bytes = 0;
  // TCP loopback transport whose sends sleep per the 128 Mbps / 1 ms link
  // model (lan_flash); otherwise in-process mailboxes.
  bool tcp_lan = false;
};

// Shapes by name: lan_flash, lan_quickstart, lan_quickstart_flash,
// cached_ram, cached_pair, quickstart.  `seed` drives the dataset, model and
// shuffle seeds; `cache_dir` is where a disk-backed cache spills (unused by
// RAM caches).
SessionShape make_shape(const std::string& name, std::uint64_t seed,
                        const std::string& cache_dir);

// The cluster the shape's session runs on (fresh ledgers, fresh transport).
std::unique_ptr<pac::dist::EdgeCluster> make_cluster(const SessionShape& shape);

// Largest per-device ledger peak over both phases.
std::uint64_t peak_device_bytes(const pac::core::SessionReport& report);

// CLOCK_MONOTONIC seconds (the clock Python's time.monotonic reads).
double monotonic_seconds();

// One JSON object printed as a single stdout line.  Doubles keep all 17
// significant digits so losses round-trip bit-for-bit.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value);
  JsonLine& str(const std::string& key, const std::string& value);
  JsonLine& flag(const std::string& key, bool value);
  JsonLine& nums(const std::string& key, const std::vector<double>& values);
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

// Writes the line to stdout and flushes, under a process-wide lock, so a
// crash later in the process never loses a line already emitted.
void emit(const JsonLine& line);

}  // namespace perfbench
