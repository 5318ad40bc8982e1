// Activation-cache micro-benchmarks (google-benchmark): record, fetch,
// disk spill/reload, and redistribution throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <numeric>

#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"

namespace {

using namespace pac;

cache::CacheConfig mem_cfg(std::int64_t blocks) {
  cache::CacheConfig cfg;
  cfg.num_blocks = blocks;
  return cfg;
}

void BM_CacheRecord(benchmark::State& state) {
  const std::int64_t blocks = 5;
  const std::int64_t t = 16;
  const std::int64_t h = state.range(0);
  Rng rng(1);
  Tensor hidden = Tensor::randn({8, t, h}, rng);
  std::vector<std::int64_t> ids(8);
  std::int64_t next_id = 0;
  for (auto _ : state) {
    cache::ActivationCache cache(mem_cfg(blocks));
    std::iota(ids.begin(), ids.end(), next_id);
    next_id += 8;
    for (std::int64_t b = 0; b < blocks; ++b) {
      cache.record(ids, b, hidden);
    }
    benchmark::DoNotOptimize(cache.memory_bytes());
  }
  state.SetBytesProcessed(state.iterations() * blocks * hidden.numel() * 4);
}
BENCHMARK(BM_CacheRecord)->Arg(32)->Arg(128);

void BM_CacheFetch(benchmark::State& state) {
  const std::int64_t blocks = 5;
  const std::int64_t h = state.range(0);
  Rng rng(2);
  cache::ActivationCache cache(mem_cfg(blocks));
  Tensor hidden = Tensor::randn({16, 8, h}, rng);
  std::vector<std::int64_t> ids(16);
  std::iota(ids.begin(), ids.end(), 0);
  for (std::int64_t b = 0; b < blocks; ++b) cache.record(ids, b, hidden);
  for (auto _ : state) {
    auto got = cache.fetch(ids);
    benchmark::DoNotOptimize(got[0].data());
  }
  state.SetBytesProcessed(state.iterations() * blocks * hidden.numel() * 4);
}
BENCHMARK(BM_CacheFetch)->Arg(32)->Arg(128);

void BM_CacheDiskSpillReload(benchmark::State& state) {
  const std::string dir = "/tmp/pac_bench_cache_spill";
  std::filesystem::remove_all(dir);
  cache::CacheConfig cfg;
  cfg.num_blocks = 5;
  cfg.disk_backed = true;
  cfg.directory = dir;
  cache::ActivationCache cache(cfg);
  Rng rng(3);
  Tensor hidden = Tensor::randn({4, 8, 64}, rng);
  std::vector<std::int64_t> ids{0, 1, 2, 3};
  for (std::int64_t b = 0; b < 5; ++b) cache.record(ids, b, hidden);
  for (auto _ : state) {
    auto got = cache.fetch(ids);  // reload from disk every time
    benchmark::DoNotOptimize(got[0].data());
  }
  state.SetBytesProcessed(state.iterations() * 5 * hidden.numel() * 4);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CacheDiskSpillReload);

// Cache redistribution over range(0) devices.  range(1) == 0: every rank
// holds one small block of each of 32 samples (the pipeline-stage layout)
// and links do not sleep.  range(1) == 1: lan_flash's cache (128 samples x
// 9 blocks of [32, 128] fp32, all recorded on rank 0 by a 1-device phase 1)
// over links that sleep per the 128 Mbps / 1 ms LinkModel.  Counters:
// blocks and frames sent per run, and at link speed the measured time over
// the egress bound, the busiest device's payload bytes at link bandwidth
// plus one link latency per frame it sends.
void BM_Redistribution(benchmark::State& state) {
  const int world = static_cast<int>(state.range(0));
  const bool at_link_speed = state.range(1) != 0;
  dist::LinkModel link;
  link.simulate_delay = at_link_speed;
  const std::int64_t samples = at_link_speed ? 128 : 32;
  const std::int64_t blocks = at_link_speed ? 9 : world;
  const Shape shape = at_link_speed ? Shape{32, 128} : Shape{8, 32};
  std::vector<cache::RedistStats> stats(static_cast<std::size_t>(world));
  double seconds = 0.0;
  double bound_seconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    dist::EdgeCluster cluster(world, std::numeric_limits<std::uint64_t>::max(),
                              link);
    std::vector<std::unique_ptr<cache::ActivationCache>> shards;
    Rng rng(4);
    for (int r = 0; r < world; ++r) {
      shards.push_back(
          std::make_unique<cache::ActivationCache>(mem_cfg(blocks)));
      Tensor block = Tensor::randn(shape, rng);
      for (std::int64_t s = 0; s < samples; ++s) {
        if (!at_link_speed) {
          shards.back()->put_block(s, r, block.clone());
        } else if (r == 0) {
          for (std::int64_t b = 0; b < blocks; ++b) {
            shards.back()->put_block(s, b, block.clone());
          }
        }
      }
    }
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    cluster.run([&](dist::DeviceContext& ctx) {
      stats[static_cast<std::size_t>(ctx.rank)] = cache::redistribute_cache(
          ctx, *shards[static_cast<std::size_t>(ctx.rank)],
          cache::modulo_sharding(world));
    });
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    double bound = 0.0;
    for (const cache::RedistStats& st : stats) {
      bound = std::max(
          bound, static_cast<double>(st.payload_bytes_sent) * 8.0 /
                         link.bandwidth_bps +
                     static_cast<double>(st.frames_sent) * link.latency_s);
    }
    bound_seconds += bound;
  }
  cache::RedistStats total;
  for (const cache::RedistStats& st : stats) total += st;
  state.counters["items"] = static_cast<double>(total.items_sent);
  state.counters["frames"] = static_cast<double>(total.frames_sent);
  if (at_link_speed) {
    state.counters["vs_egress_bound"] = seconds / bound_seconds;
  }
}
BENCHMARK(BM_Redistribution)->Args({2, 0})->Args({4, 0});
BENCHMARK(BM_Redistribution)
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
