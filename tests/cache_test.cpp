#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "cache/activation_cache.hpp"
#include "cache/redistribution.hpp"
#include "dist/transport_factories.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace pac::cache {
namespace {

CacheConfig mem_cfg(std::int64_t num_blocks,
                    dist::MemoryLedger* ledger = nullptr) {
  CacheConfig cfg;
  cfg.num_blocks = num_blocks;
  cfg.ledger = ledger;
  return cfg;
}

CacheConfig disk_cfg(std::int64_t num_blocks, const std::string& dir) {
  CacheConfig cfg;
  cfg.num_blocks = num_blocks;
  cfg.disk_backed = true;
  cfg.directory = dir;
  return cfg;
}

Tensor make_block(std::int64_t t, std::int64_t h, float base) {
  Tensor x({t, h});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = base + static_cast<float>(i);
  }
  return x;
}

TEST(ActivationCacheTest, RecordAndFetchRoundTrip) {
  ActivationCache cache(mem_cfg(3));
  // Record a micro-batch of 2 samples for each of 3 blocks.
  Rng rng(5);
  std::vector<Tensor> blocks;
  for (std::int64_t b = 0; b < 3; ++b) {
    Tensor hidden = Tensor::randn({2, 4, 8}, rng);
    blocks.push_back(hidden);
    cache.record({10, 20}, b, hidden);
  }
  EXPECT_TRUE(cache.complete(10));
  EXPECT_TRUE(cache.complete(20));
  auto fetched = cache.fetch({20, 10});
  ASSERT_EQ(fetched.size(), 3U);
  for (std::int64_t b = 0; b < 3; ++b) {
    // Row 0 of the fetch is sample 20 = row 1 of the recorded batch.
    Tensor want0 = blocks[static_cast<std::size_t>(b)].slice0(1, 2);
    Tensor got0 = fetched[static_cast<std::size_t>(b)].slice0(0, 1);
    EXPECT_LT(ops::max_abs_diff(want0, got0), 1e-7F);
  }
}

TEST(ActivationCacheTest, MissAndIncompleteThrow) {
  ActivationCache cache(mem_cfg(2));
  cache.put_block(5, 0, make_block(2, 2, 0.0F));
  EXPECT_FALSE(cache.complete(5));
  EXPECT_THROW(cache.fetch({5}), InvalidArgument);   // incomplete
  EXPECT_THROW(cache.fetch({99}), CacheMissError);   // absent
  EXPECT_THROW(cache.get_block(5, 1), CacheMissError);
  EXPECT_THROW(cache.fetch({}), InvalidArgument);
}

TEST(ActivationCacheTest, DuplicateRecordThrows) {
  ActivationCache cache(mem_cfg(2));
  cache.put_block(1, 0, make_block(2, 2, 0.0F));
  EXPECT_THROW(cache.put_block(1, 0, make_block(2, 2, 1.0F)),
               InvalidArgument);
}

TEST(ActivationCacheTest, LedgerChargesAndRefunds) {
  dist::MemoryLedger ledger(0, 1U << 20);
  ActivationCache cache(mem_cfg(1, &ledger));
  cache.put_block(1, 0, make_block(4, 4, 0.0F));
  EXPECT_EQ(ledger.current(dist::MemClass::kCache), 64U);
  EXPECT_EQ(cache.memory_bytes(), 64U);
  cache.drop_sample(1);
  EXPECT_EQ(ledger.current(dist::MemClass::kCache), 0U);
}

TEST(ActivationCacheTest, LedgerBudgetTriggersOom) {
  dist::MemoryLedger ledger(2, 100);
  ActivationCache cache(mem_cfg(1, &ledger));
  EXPECT_THROW(cache.put_block(1, 0, make_block(10, 10, 0.0F)),
               DeviceOomError);
}

TEST(ActivationCacheTest, DiskSpillEvictsRamAndReloads) {
  const std::string dir = "/tmp/pac_cache_test_spill";
  std::filesystem::remove_all(dir);
  ActivationCache cache(disk_cfg(2, dir));
  Tensor b0 = make_block(3, 4, 0.0F);
  Tensor b1 = make_block(3, 4, 100.0F);
  cache.put_block(7, 0, b0.clone());
  EXPECT_GT(cache.memory_bytes(), 0U);
  cache.put_block(7, 1, b1.clone());  // completes -> spills
  EXPECT_EQ(cache.memory_bytes(), 0U);
  EXPECT_GT(cache.total_bytes(), 0U);
  EXPECT_TRUE(cache.complete(7));

  auto fetched = cache.fetch({7});
  EXPECT_LT(ops::max_abs_diff(fetched[0].reshape({3, 4}), b0), 1e-7F);
  EXPECT_LT(ops::max_abs_diff(fetched[1].reshape({3, 4}), b1), 1e-7F);
  // get_block also reloads.
  EXPECT_LT(ops::max_abs_diff(cache.get_block(7, 1), b1), 1e-7F);

  cache.clear();
  EXPECT_FALSE(std::filesystem::exists(dir + "/sample_7.bin"));
}

TEST(ActivationCacheTest, HeldBlocksEnumeration) {
  ActivationCache cache(mem_cfg(3));
  cache.put_block(1, 0, make_block(2, 2, 0.0F));
  cache.put_block(1, 2, make_block(2, 2, 0.0F));
  cache.put_block(4, 1, make_block(2, 2, 0.0F));
  auto held = cache.held_blocks();
  EXPECT_EQ(held.size(), 3U);
  EXPECT_EQ(cache.sample_ids(), (std::vector<std::int64_t>{1, 4}));
}

TEST(RedistributionTest, ShardsConvergeToTargets) {
  // 3 devices; initially each device holds *one block* of every sample
  // (as if each ran one pipeline stage).  After redistribution, device
  // (sample % 3) holds the complete entry.
  const int world = 3;
  const std::int64_t num_blocks = 3;
  const std::int64_t num_samples = 7;
  dist::EdgeCluster cluster(world,
                            std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < world; ++r) {
    shards.push_back(
        std::make_unique<ActivationCache>(mem_cfg(num_blocks)));
    for (std::int64_t s = 0; s < num_samples; ++s) {
      shards.back()->put_block(
          s, r, make_block(2, 2, static_cast<float>(s * 10 + r)));
    }
  }
  std::vector<RedistStats> stats(world);
  cluster.run([&](dist::DeviceContext& ctx) {
    stats[static_cast<std::size_t>(ctx.rank)] = redistribute_cache(
        ctx, *shards[static_cast<std::size_t>(ctx.rank)],
        modulo_sharding(world));
  });

  for (std::int64_t s = 0; s < num_samples; ++s) {
    const int target = static_cast<int>(s % world);
    for (int r = 0; r < world; ++r) {
      if (r == target) {
        EXPECT_TRUE(shards[static_cast<std::size_t>(r)]->complete(s))
            << "sample " << s << " incomplete on target " << r;
        // Content check: block b carries base s*10+b.
        for (std::int64_t b = 0; b < num_blocks; ++b) {
          EXPECT_FLOAT_EQ(shards[static_cast<std::size_t>(r)]
                              ->get_block(s, b)
                              .at({0, 0}),
                          static_cast<float>(s * 10 + b));
        }
      } else {
        EXPECT_FALSE(shards[static_cast<std::size_t>(r)]->complete(s));
        EXPECT_FALSE(shards[static_cast<std::size_t>(r)]->has_block(s, r));
      }
    }
  }
  // Conservation: items sent == items received overall.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const auto& st : stats) {
    sent += st.items_sent;
    received += st.items_received;
  }
  EXPECT_EQ(sent, received);
  EXPECT_GT(sent, 0U);
}

TEST(RedistributionTest, SelfTargetedSamplesStayPut) {
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 2; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(1)));
  }
  // Device 0 holds sample 0 (target 0) and sample 1 (target 1).
  shards[0]->put_block(0, 0, make_block(2, 2, 1.0F));
  shards[0]->put_block(1, 0, make_block(2, 2, 2.0F));
  cluster.run([&](dist::DeviceContext& ctx) {
    redistribute_cache(ctx, *shards[static_cast<std::size_t>(ctx.rank)],
                       modulo_sharding(2));
  });
  EXPECT_TRUE(shards[0]->complete(0));
  EXPECT_FALSE(shards[0]->complete(1));
  EXPECT_TRUE(shards[1]->complete(1));
  EXPECT_FLOAT_EQ(shards[1]->get_block(1, 0).at({0, 0}), 2.0F);
}

TEST(RedistributionTest, BadTargetThrows) {
  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 2; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(1)));
    shards.back()->put_block(r, 0, make_block(2, 2, 0.0F));
  }
  EXPECT_THROW(
      cluster.run([&](dist::DeviceContext& ctx) {
        redistribute_cache(ctx, *shards[static_cast<std::size_t>(ctx.rank)],
                           [](std::int64_t) { return 99; });
      }),
      InvalidArgument);
}

// ---- batched redistribution protocol, on every transport backend -------

enum class Backend { kInProc, kShm, kTcp };

std::string backend_name(Backend b) {
  switch (b) {
    case Backend::kInProc: return "InProc";
    case Backend::kShm: return "Shm";
    case Backend::kTcp: return "Tcp";
  }
  return "Unknown";
}

std::string unique_name(const std::string& stem) {
  static std::atomic<int> counter{0};
  return stem + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

// A cluster on one backend that keeps each rank's endpoint of the latest
// run, so tests can read per-link send statistics afterwards.
class RedistWorld {
 public:
  RedistWorld(Backend backend, int n)
      : cluster(n, std::numeric_limits<std::uint64_t>::max()),
        endpoints_(static_cast<std::size_t>(n), nullptr) {
    if (backend == Backend::kInProc) return;  // one shared InProcTransport
    dist::TransportFactory base =
        backend == Backend::kShm
            ? dist::make_shm_loopback_factory(unique_name("/pac_redist_"))
            : dist::make_tcp_loopback_factory();
    cluster.set_transport_factory(
        [this, base](int world, int rank, const dist::LinkModel& link,
                     const dist::FaultPlan& faults) {
          auto endpoint = base(world, rank, link, faults);
          endpoints_[static_cast<std::size_t>(rank)] = endpoint.get();
          return endpoint;
        });
  }
  RedistWorld(const RedistWorld&) = delete;
  RedistWorld& operator=(const RedistWorld&) = delete;

  // Messages `from` sent to `to` during the latest run.
  std::uint64_t messages(int from, int to) const {
    const dist::Transport* t = endpoints_[static_cast<std::size_t>(from)];
    if (t == nullptr) t = cluster.last_transport();
    return t->stats(from, to).messages;
  }

  // Runs redistribute_cache on every live rank over `group`.
  std::vector<RedistStats> redistribute(
      std::vector<std::unique_ptr<ActivationCache>>& shards,
      const std::function<int(std::int64_t)>& target,
      const std::vector<int>& group) {
    std::vector<RedistStats> stats(shards.size());
    cluster.run([&](dist::DeviceContext& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank);
      stats[r] = redistribute_cache(ctx, *shards[r], target, group);
    });
    return stats;
  }

  dist::EdgeCluster cluster;

 private:
  std::vector<const dist::Transport*> endpoints_;
};

using BlockKey = std::pair<std::int64_t, std::int64_t>;
using Snapshot = std::map<BlockKey, quant::QTensor>;

// Every block any shard holds, in its stored representation.
Snapshot snapshot(const std::vector<std::unique_ptr<ActivationCache>>& shards) {
  Snapshot out;
  for (const auto& shard : shards) {
    if (shard == nullptr) continue;
    for (const auto& key : shard->held_blocks()) {
      const auto block = static_cast<std::size_t>(key.second);
      EXPECT_TRUE(out.emplace(key, shard->get_blocks(key.first)[block]).second)
          << "block held twice before redistribution";
    }
  }
  return out;
}

// Each block now sits on its sample's target only, byte for byte as it was.
void expect_delivered(
    const Snapshot& before,
    const std::vector<std::unique_ptr<ActivationCache>>& shards,
    const std::function<int(std::int64_t)>& target) {
  for (const auto& [key, want] : before) {
    const auto [sample, block] = key;
    for (std::size_t r = 0; r < shards.size(); ++r) {
      if (shards[r] == nullptr) continue;
      if (static_cast<int>(r) != target(sample)) {
        EXPECT_FALSE(shards[r]->has_block(sample, block))
            << "rank " << r << " kept (" << sample << ", " << block << ")";
        continue;
      }
      ASSERT_TRUE(shards[r]->has_block(sample, block))
          << "(" << sample << ", " << block << ") missing on rank " << r;
      const quant::QTensor got =
          shards[r]->get_blocks(sample)[static_cast<std::size_t>(block)];
      EXPECT_EQ(got.dtype, want.dtype);
      EXPECT_EQ(got.shape, want.shape);
      EXPECT_EQ(got.data, want.data);
      EXPECT_EQ(got.scales, want.scales);
    }
  }
}

CacheConfig typed_cfg(std::int64_t num_blocks, quant::Dtype dtype) {
  CacheConfig cfg = mem_cfg(num_blocks);
  cfg.dtype = dtype;
  return cfg;
}

RedistStats sum(const std::vector<RedistStats>& stats) {
  RedistStats out;
  for (const RedistStats& s : stats) out += s;
  return out;
}

class RedistProtocolTest : public ::testing::TestWithParam<Backend> {};

TEST_P(RedistProtocolTest, EveryDtypeArrivesByteIdentical) {
  // Pipeline-stage layout: rank r recorded block r of every sample.
  constexpr int kWorld = 3;
  constexpr std::int64_t kSamples = 10;
  for (const quant::Dtype dtype :
       {quant::Dtype::kF32, quant::Dtype::kF16, quant::Dtype::kI8}) {
    SCOPED_TRACE(quant::dtype_name(dtype));
    RedistWorld world(GetParam(), kWorld);
    std::vector<std::unique_ptr<ActivationCache>> shards;
    Rng rng(17);
    for (int r = 0; r < kWorld; ++r) {
      shards.push_back(
          std::make_unique<ActivationCache>(typed_cfg(kWorld, dtype)));
      for (std::int64_t s = 0; s < kSamples; ++s) {
        shards.back()->put_block(s, r, Tensor::randn({4, 24}, rng));
      }
    }
    const Snapshot before = snapshot(shards);
    const auto target = modulo_sharding(kWorld);
    const auto stats = world.redistribute(shards, target, {0, 1, 2});
    expect_delivered(before, shards, target);
    for (std::int64_t s = 0; s < kSamples; ++s) {
      EXPECT_TRUE(shards[static_cast<std::size_t>(target(s))]->complete(s));
    }
    const RedistStats all = sum(stats);
    EXPECT_EQ(all.items_sent, all.items_received);
    // Everything fits one frame per (sender, peer) link.
    EXPECT_EQ(all.frames_sent, 6U);
  }
}

TEST_P(RedistProtocolTest, SalvagedAndMixedShapeBlocksArriveByteIdentical) {
  // Rank 0's fp32 shard holds its own recordings plus entries salvaged
  // from an fp16 flash store, and its blocks alternate row lengths, so
  // frames must close at every row-length change.
  const std::string dir = "/tmp/" + unique_name("pac_redist_salvage_");
  std::filesystem::remove_all(dir);
  RedistWorld world(GetParam(), 2);
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 2; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(2)));
  }
  {
    // Salvage while the flash shard exists: its destructor removes its
    // spill files.
    CacheConfig flash = typed_cfg(2, quant::Dtype::kF16);
    flash.disk_backed = true;
    flash.directory = dir;
    ActivationCache dead(flash);
    Rng rng(3);
    for (std::int64_t s = 100; s < 104; ++s) {
      dead.put_block(s, 0, Tensor::randn({4, 8}, rng));
      dead.put_block(s, 1, Tensor::randn({4, 12}, rng));
    }
    EXPECT_EQ(shards[0]->absorb_spilled_directory(dir), 4);
  }
  std::filesystem::remove_all(dir);
  Rng rng(4);
  for (std::int64_t s = 0; s < 4; ++s) {
    shards[0]->put_block(s, 0, Tensor::randn({4, 8}, rng));
    shards[0]->put_block(s, 1, Tensor::randn({4, 12}, rng));
  }
  const Snapshot before = snapshot(shards);
  auto target = [](std::int64_t s) { return s % 2 == 0 ? 0 : 1; };
  const auto stats = world.redistribute(shards, target, {0, 1});
  expect_delivered(before, shards, target);
  // Four odd samples of two blocks each; every block changes row length.
  EXPECT_EQ(stats[0].items_sent, 8U);
  EXPECT_EQ(stats[0].frames_sent, 8U);
  EXPECT_EQ(stats[1].items_received, 8U);
}

TEST_P(RedistProtocolTest, DiskShardReadsEachSpilledSampleOnce) {
  // A flash-backed shard ships every spilled sample from one read of its
  // file (one cache_load span), not one read per block.
  constexpr std::int64_t kSamples = 5;
  constexpr std::int64_t kBlocks = 4;
  const std::string dir = "/tmp/" + unique_name("pac_redist_reads_");
  std::filesystem::remove_all(dir);
  RedistWorld world(GetParam(), 2);
  std::vector<std::unique_ptr<ActivationCache>> shards;
  CacheConfig flash = disk_cfg(kBlocks, dir);
  flash.dtype = quant::Dtype::kF16;
  shards.push_back(std::make_unique<ActivationCache>(flash));
  shards.push_back(
      std::make_unique<ActivationCache>(typed_cfg(kBlocks, flash.dtype)));
  Rng rng(8);
  for (std::int64_t s = 0; s < kSamples; ++s) {
    for (std::int64_t b = 0; b < kBlocks; ++b) {
      shards[0]->put_block(s, b, Tensor::randn({3, 8}, rng));
    }
  }
  ASSERT_EQ(shards[0]->memory_bytes(), 0U);  // every sample spilled
  const Snapshot before = snapshot(shards);
  const auto target = [](std::int64_t) { return 1; };
  std::map<std::int64_t, int> reads;
  std::int64_t total_reads = 0;
  {
    obs::TraceSession trace;
    world.redistribute(shards, target, {0, 1});
    for (const obs::SpanRecord& span : trace.spans()) {
      if (std::string(span.name) != "cache_load") continue;
      ++reads[span.args[0]];
      ++total_reads;
    }
  }
  EXPECT_EQ(total_reads, kSamples);
  EXPECT_EQ(reads.size(), static_cast<std::size_t>(kSamples));
  expect_delivered(before, shards, target);
  shards.clear();
  std::filesystem::remove_all(dir);
}

TEST_P(RedistProtocolTest, ShardOverTheFrameCapSplits) {
  // 40 blocks of 64 KiB to one peer: 2.5 MiB, so three 1 MiB frames.
  constexpr std::int64_t kRows = 64, kH = 256, kBlocks = 40;
  static_assert(kRedistFrameBytes == (1u << 20), "frame count below");
  RedistWorld world(GetParam(), 2);
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 2; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(1)));
  }
  Rng rng(9);
  for (std::int64_t s = 0; s < kBlocks; ++s) {
    shards[0]->put_block(s, 0, Tensor::randn({kRows, kH}, rng));
  }
  const Snapshot before = snapshot(shards);
  auto target = [](std::int64_t) { return 1; };
  const auto stats = world.redistribute(shards, target, {0, 1});
  expect_delivered(before, shards, target);
  EXPECT_EQ(stats[0].items_sent, 40U);
  EXPECT_EQ(stats[0].payload_bytes_sent, 40U * kRows * kH * 4);
  EXPECT_EQ(stats[0].frames_sent, 3U);
  // Two messages per frame plus the trailer.
  EXPECT_EQ(world.messages(0, 1), 7U);
}

TEST_P(RedistProtocolTest, PeerWithNothingToReceiveCompletes) {
  RedistWorld world(GetParam(), 3);
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < 3; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(2)));
  }
  for (std::int64_t s = 0; s < 6; ++s) {
    shards[0]->put_block(s, 0, make_block(2, 4, static_cast<float>(s)));
    shards[1]->put_block(s, 1, make_block(2, 4, static_cast<float>(-s)));
  }
  const Snapshot before = snapshot(shards);
  auto target = [](std::int64_t s) { return static_cast<int>(s % 2); };
  const auto stats = world.redistribute(shards, target, {0, 1, 2});
  expect_delivered(before, shards, target);
  EXPECT_EQ(stats[2].items_received, 0U);
  EXPECT_EQ(stats[2].frames_sent, 0U);
  EXPECT_TRUE(shards[2]->held_blocks().empty());
  // An idle link carries only the trailer.
  EXPECT_EQ(world.messages(0, 2), 1U);
  EXPECT_EQ(world.messages(2, 0), 1U);
}

TEST_P(RedistProtocolTest, GroupScopedCallAfterDeath) {
  // Rank 2 died; the survivors re-shard among themselves.
  RedistWorld world(GetParam(), 4);
  world.cluster.mark_dead(2);
  const std::vector<int> alive = world.cluster.alive_ranks();
  ASSERT_EQ(alive, (std::vector<int>{0, 1, 3}));
  std::vector<std::unique_ptr<ActivationCache>> shards(4);
  Rng rng(11);
  for (int r : alive) {
    auto& shard = shards[static_cast<std::size_t>(r)];
    shard = std::make_unique<ActivationCache>(typed_cfg(4, quant::Dtype::kI8));
    for (std::int64_t s = 0; s < 9; ++s) {
      shard->put_block(s, r, Tensor::randn({3, 16}, rng));
    }
  }
  const Snapshot before = snapshot(shards);
  const auto target = modulo_sharding_over(alive);
  const auto stats = world.redistribute(shards, target, alive);
  expect_delivered(before, shards, target);
  EXPECT_EQ(sum(stats).items_sent, 18U);
  EXPECT_EQ(sum(stats).items_received, 18U);
}

TEST_P(RedistProtocolTest, MessagesScaleWithFramesNotBlocks) {
  // 60 blocks cross every link, yet each link carries one frame: a header,
  // a payload and the trailer.
  constexpr int kWorld = 3;
  RedistWorld world(GetParam(), kWorld);
  std::vector<std::unique_ptr<ActivationCache>> shards;
  for (int r = 0; r < kWorld; ++r) {
    shards.push_back(std::make_unique<ActivationCache>(mem_cfg(kWorld)));
    for (std::int64_t s = 0; s < 90; ++s) {
      shards.back()->put_block(s, r, make_block(2, 4, static_cast<float>(r)));
    }
  }
  const auto stats =
      world.redistribute(shards, modulo_sharding(kWorld), {0, 1, 2});
  for (int from = 0; from < kWorld; ++from) {
    const RedistStats& st = stats[static_cast<std::size_t>(from)];
    EXPECT_EQ(st.items_sent, 60U);
    EXPECT_EQ(st.frames_sent, 2U);
    for (int to = 0; to < kWorld; ++to) {
      if (to == from) continue;
      EXPECT_EQ(world.messages(from, to), 3U)
          << "link " << from << " -> " << to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RedistProtocolTest,
                         ::testing::Values(Backend::kInProc, Backend::kShm,
                                           Backend::kTcp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return backend_name(info.param);
                         });

}  // namespace
}  // namespace pac::cache
