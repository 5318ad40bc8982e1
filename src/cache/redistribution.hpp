// Cache redistribution between fine-tuning phases (paper §5.2).
//
// After epoch 1, each device's cache shard holds only the (sample, block)
// pairs its pipeline stage produced for the micro-batches it owned.  Phase
// 2 trains data-parallel, so every device needs *complete* entries for the
// samples assigned to it.  `redistribute_cache` performs the all-to-all:
// every rank ships its held blocks to each sample's target device and
// drops what it shipped.  The paper measures this at ~8 % of a 3-epoch
// BART-Large/MRPC run; the traffic counters here and the event simulator
// reproduce that accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cache/activation_cache.hpp"
#include "dist/cluster.hpp"

namespace pac::cache {

// items_* count (sample, block) entries; frames_sent counts the batched
// frames that carried them (see redistribute_cache).
struct RedistStats {
  std::uint64_t items_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t items_received = 0;
  std::uint64_t frames_sent = 0;

  RedistStats& operator+=(const RedistStats& other) {
    items_sent += other.items_sent;
    payload_bytes_sent += other.payload_bytes_sent;
    items_received += other.items_received;
    frames_sent += other.frames_sent;
    return *this;
  }
};

// Byte cap of one redistribution frame's payload.  A frame also closes
// when the next block's stored dtype or row length differs.
inline constexpr std::uint64_t kRedistFrameBytes = 1u << 20;

// Must be called by every rank of `group` (inside EdgeCluster::run).
// target_of_sample maps a dataset sample id to the rank (a member of
// `group`) that will train on it in phase 2.  `group` must be sorted,
// unique, and contain ctx.rank; after a device death the survivors pass
// cluster.alive_ranks() so the all-to-all skips the dead rank.
//
// Wire protocol, per (sender, peer) link, peers in group order from the
// calling thread: zero or more frames, then a one-element trailer holding
// the frame count.  A frame is a float header tensor [k, 3] of
// (sample, block, rows) followed by one QTensor [sum rows, row_len] that
// concatenates the k blocks' stored bytes row-wise (get_blocks, which
// reads a spilled sample's file once); int8 scales concatenate the same
// way.  Frames close at kRedistFrameBytes and at any change of dtype or
// row length.  The receiver stores the blocks with put_block in the
// sender's held_blocks() order, so one path moves fp32 (bit-exact kF32
// repack), fp16 and int8 shards alike.  Ids must be below 2^24, the
// largest range a float header holds exactly.
RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample,
    const std::vector<int>& group);

// Whole-world convenience overload.
RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample);

// Standard phase-2 sharding: sample id modulo world size.
inline std::function<int(std::int64_t)> modulo_sharding(int world_size) {
  return [world_size](std::int64_t sample_id) {
    return static_cast<int>(sample_id % world_size);
  };
}

// Recovery sharding: samples round-robin over an explicit (sorted) rank
// list — the survivors after a device death.
inline std::function<int(std::int64_t)> modulo_sharding_over(
    std::vector<int> ranks) {
  return [ranks = std::move(ranks)](std::int64_t sample_id) {
    return ranks[static_cast<std::size_t>(
        sample_id % static_cast<std::int64_t>(ranks.size()))];
  };
}

// Throughput-weighted apportionment for the elastic re-shard: splits
// sample ids [0, num_samples) into one contiguous range per weight entry,
// sized by largest-remainder so counts sum exactly to num_samples (every
// sample lands exactly once — the invariant the property tests assert).
// `max_samples`, when given, caps each entry's count (a per-device memory
// budget expressed in samples); overflow moves to the highest-weight
// entries with spare capacity.  Requires positive weights, and caps that
// can hold num_samples in total.
std::vector<std::pair<std::int64_t, std::int64_t>> weighted_sample_ranges(
    const std::vector<double>& weights, std::int64_t num_samples,
    const std::vector<std::int64_t>* max_samples = nullptr);

// The target_of_sample function for redistribute_cache built on the
// ranges above: ranks[i] trains the i-th contiguous range.  The elastic
// re-shard passes the survivors with their observed speed scales so a
// straggler keeps proportionally less of the cache.
std::function<int(std::int64_t)> weighted_sharding_over(
    std::vector<int> ranks, const std::vector<double>& weights,
    std::int64_t num_samples,
    const std::vector<std::int64_t>* max_samples = nullptr);

}  // namespace pac::cache
