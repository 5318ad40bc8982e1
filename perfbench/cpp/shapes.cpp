#include "shapes.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "dist/transport_factories.hpp"
#include "service/load_generator.hpp"

namespace perfbench {

using namespace pac;

SessionShape make_shape(const std::string& name, std::uint64_t seed,
                        const std::string& cache_dir) {
  service::SplitMix64 rng(seed ^ 0x5e551011ULL);
  SessionShape s;
  s.name = name;
  s.data.task = data::GlueTask::kSst2;
  s.data.vocab = 64;
  s.data.seed = rng.next();
  core::SessionConfig& c = s.config;
  c.technique.technique = model::Technique::kParallelAdapters;
  c.model_seed = rng.next();
  c.shuffle_seed = rng.next();
  c.lr = 5e-3F;
  if (name == "cached_ram" || name == "cached_pair") {
    // Compute and the RAM cache's read path: 7 of 8 epochs are cached.
    s.data.train_samples = 256;
    s.data.eval_samples = 32;
    s.data.seq_len = 32;
    c.model = model::tiny(8, 64, 2, 64, 32);
    c.technique.pa_reduction = 4;
    c.batch_size = 32;
    c.num_micro_batches = 4;
    c.epochs = 8;
    c.cache_dtype = quant::Dtype::kF16;
    s.devices = name == "cached_pair" ? 2 : 4;
    s.device_budget_bytes = 512ULL << 20;
  } else if (name == "lan_flash") {
    // The paper's setting: a 128 Mbps edge LAN, a flash-backed cache and a
    // per-device budget that binds.
    s.data.train_samples = 128;
    s.data.eval_samples = 32;
    s.data.seq_len = 32;
    c.model = model::tiny(8, 128, 4, 64, 32);
    c.technique.pa_reduction = 4;
    c.batch_size = 32;
    c.num_micro_batches = 4;
    c.epochs = 3;
    c.cache_disk_backed = true;
    c.cache_directory = cache_dir;
    c.network = costmodel::edge_lan();
    s.devices = 4;
    s.device_budget_bytes = 8000ULL << 10;
    s.tcp_lan = true;
  } else if (name == "quickstart" || name == "lan_quickstart" ||
             name == "lan_quickstart_flash") {
    // examples/quickstart's session: on a single device (a tenant job), on
    // its 4-device, 256 MiB cluster over lan_flash's links, or on those
    // links with lan_flash's disk-backed cache and a binding budget.
    s.data.train_samples = 96;
    s.data.eval_samples = 48;
    s.data.seq_len = 16;
    c.model = model::tiny(4, 32, 2, 64, 16);
    c.technique.pa_reduction = 8;
    c.batch_size = 16;
    c.num_micro_batches = 4;
    c.epochs = 3;
    s.devices = 1;
    s.device_budget_bytes = 512ULL << 20;
    if (name != "quickstart") {
      c.network = costmodel::edge_lan();
      s.devices = 4;
      s.device_budget_bytes = 256ULL << 20;
      s.tcp_lan = true;
    }
    if (name == "lan_quickstart_flash") {
      // 252 KiB is the middle of the budgets where the first attempt OOMs
      // and the half-batch retry fits (246-260 KiB); below them a second
      // retry fires, and from 236 KiB down the session fails.
      c.cache_disk_backed = true;
      c.cache_directory = cache_dir;
      s.device_budget_bytes = 252ULL << 10;
    }
  } else {
    PAC_CHECK(false, "unknown session shape '" << name << "'");
  }
  return s;
}

std::unique_ptr<dist::EdgeCluster> make_cluster(const SessionShape& shape) {
  dist::LinkModel link;
  link.simulate_delay = shape.tcp_lan;
  auto cluster = std::make_unique<dist::EdgeCluster>(
      shape.devices, shape.device_budget_bytes, link);
  if (shape.tcp_lan) {
    cluster->set_transport_factory(dist::make_tcp_loopback_factory());
  }
  return cluster;
}

std::uint64_t peak_device_bytes(const core::SessionReport& report) {
  std::uint64_t peak = 0;
  for (std::uint64_t b : report.phase1.peak_memory_per_device) {
    peak = std::max(peak, b);
  }
  for (std::uint64_t b : report.phase2.peak_memory_per_device) {
    peak = std::max(peak, b);
  }
  return peak;
}

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

JsonLine& JsonLine::num(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += "\"";
  for (char ch : value) {
    if (ch == '"' || ch == '\\') {
      body_ += '\\';
      body_ += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      body_ += ' ';
    } else {
      body_ += ch;
    }
  }
  body_ += "\"";
  return *this;
}

JsonLine& JsonLine::flag(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::nums(const std::string& k,
                         const std::vector<double>& values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? "," : "", values[i]);
    body_ += buf;
  }
  body_ += "]";
  return *this;
}

void emit(const JsonLine& line) {
  static std::mutex stdout_mutex;
  std::lock_guard<std::mutex> guard(stdout_mutex);
  std::fputs(line.text().c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
