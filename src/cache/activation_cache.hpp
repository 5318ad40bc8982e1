// PAC activation cache (paper §4.2).
//
// Because the backbone is frozen, the activations [b_0 .. b_L] for a given
// sample never change; epoch 1 records them and later epochs train the side
// network without any backbone forward.  One cache instance is one device's
// shard.  Two backends:
//   memory — everything held in RAM, charged to the device ledger (kCache);
//   disk   — completed samples are spilled to one file each and evicted
//            from RAM; fetch() reloads on demand.  This models the paper's
//            flash-storage cache ("reloaded from disk per micro-batch",
//            storage §5.2) and keeps the DRAM ledger honest.
//
// Storage dtype (CacheConfig::dtype): every block is stored as a
// quant::QTensor of the shard's dtype — a bit-exact kF32 repack for fp32
// shards, quantized on insert for fp16/int8 ones (see tensor/quant.hpp for
// the format) — and dequantized on fetch, so for compressed shards RAM, the
// ledger charge, the spill files, and redistribution traffic all shrink
// 2-4x.  get_blocks/put_block move entries between shards in their stored
// representation — redistribution never requantizes, so shipping a block
// is lossless.  Spill files use one format for every dtype.
//
// Disk-backed shards additionally support prefetch(): a background reader
// thread reloads the announced samples into a staging buffer while the
// trainer computes the current step, and the next fetch() consumes the
// staged entries instead of touching disk (double buffering: at any time
// one batch is being consumed while the next is being loaded).  prefetch
// is purely advisory — a fetch for ids that were never announced, or whose
// staging failed, falls back to the synchronous reload.  All public
// methods are thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/memory_ledger.hpp"
#include "pipeline/activation_io.hpp"
#include "tensor/quant.hpp"

namespace pac::cache {

struct CacheConfig {
  std::int64_t num_blocks = 0;  // activations per sample (= L + 1)
  bool disk_backed = false;
  std::string directory;  // required when disk_backed
  // Storage precision for cached activations.  kF32 keeps the original
  // bit-exact behaviour; kF16/kI8 quantize on insert.
  quant::Dtype dtype = quant::Dtype::kF32;
  // Optional ledger to charge in-memory cache bytes against.
  dist::MemoryLedger* ledger = nullptr;
};

class ActivationCache : public pipeline::ActivationRecorder,
                        public pipeline::ActivationSource {
 public:
  explicit ActivationCache(CacheConfig config);
  ~ActivationCache() override;

  ActivationCache(const ActivationCache&) = delete;
  ActivationCache& operator=(const ActivationCache&) = delete;

  // ---- recording (phase 1) ----
  void record(const std::vector<std::int64_t>& sample_ids,
              std::int64_t block_index, const Tensor& hidden) override;

  // ---- serving (phase 2) ----
  std::vector<Tensor> fetch(
      const std::vector<std::int64_t>& sample_ids) const override;
  // Starts reloading the given (spilled) samples in the background; the
  // next fetch covering them consumes the staged copies.  Coalescing: a
  // new announcement replaces an unstarted one.  No-op for memory-backed
  // shards.
  void prefetch(const std::vector<std::int64_t>& sample_ids) const override;

  // ---- shard management / redistribution ----
  bool has_block(std::int64_t sample_id, std::int64_t block_index) const;
  bool complete(std::int64_t sample_id) const;
  std::vector<std::int64_t> sample_ids() const;
  // (sample, block) pairs currently held (complete or not).
  std::vector<std::pair<std::int64_t, std::int64_t>> held_blocks() const;
  // Single cached activation [T, H] as fp32 (dequantized when the shard is
  // compressed); throws CacheMissError if absent.
  Tensor get_block(std::int64_t sample_id, std::int64_t block_index) const;
  // A sample's stored blocks, indexed by block (undefined where none was
  // recorded); a spilled sample is read from disk once.  The lossless
  // source for shard-to-shard moves (redistribution, salvage).  Throws
  // CacheMissError if the sample is absent.
  std::vector<quant::QTensor> get_blocks(std::int64_t sample_id) const;
  // Stores a block.  A payload of the shard's dtype is stored verbatim; a
  // mismatched one is converted through fp32 (at most one requantization).
  void put_block(std::int64_t sample_id, std::int64_t block_index,
                 quant::QTensor payload);
  void put_block(std::int64_t sample_id, std::int64_t block_index,
                 const Tensor& activation) {
    put_block(sample_id, block_index, quant::quantize(activation, dtype()));
  }
  // Drops a sample's blocks from this shard (after shipping them away).
  void drop_sample(std::int64_t sample_id);
  // Salvage: loads every spilled sample file found in `directory` (another
  // shard's on-disk cache — e.g. a dead device's flash store) into this
  // shard, skipping samples already held.  Spilled blocks of another dtype
  // are converted like put_block.  Returns samples absorbed.
  std::int64_t absorb_spilled_directory(const std::string& directory);

  std::int64_t num_blocks() const { return config_.num_blocks; }
  quant::Dtype dtype() const { return config_.dtype; }
  std::uint64_t memory_bytes() const;  // resident RAM bytes
  std::uint64_t total_bytes() const;   // RAM + spilled
  void clear();

 private:
  struct Entry {
    std::vector<quant::QTensor> blocks;  // per-block activations [T, H]
    std::int64_t present = 0;  // how many blocks are defined
    bool spilled = false;      // on disk, RAM copy evicted
    std::uint64_t spilled_bytes = 0;
  };

  // Background reader state (guarded by mutex_ like everything else; the
  // disk reads themselves run unlocked).
  struct PrefetchState {
    std::condition_variable work;          // wakes the reader thread
    std::condition_variable staged_ready;  // wakes fetches waiting on it
    std::vector<std::int64_t> request;     // coalescing announcement slot
    bool has_request = false;
    std::vector<std::int64_t> inflight;    // ids currently being staged
    bool busy = false;
    std::map<std::int64_t, Entry> staged;  // loaded, awaiting consumption
    bool stop = false;
    bool running = false;
    std::thread thread;
  };

  std::string sample_path(std::int64_t sample_id) const;
  void maybe_spill(std::int64_t sample_id, Entry& entry);
  Entry load_spilled(std::int64_t sample_id) const;
  // Parses one spill stream into a RAM entry.
  static Entry read_spilled_entry(std::istream& in);
  void charge(std::uint64_t bytes);
  void refund(std::uint64_t bytes);

  void put_block_locked(std::int64_t sample_id, std::int64_t block_index,
                        quant::QTensor payload);
  void drop_sample_locked(std::int64_t sample_id);
  void prefetch_main() const;
  void stop_prefetcher();

  CacheConfig config_;
  // Guards entries_/memory_bytes_/spilled_bytes_/pf_ (all public methods
  // lock it; internal *_locked helpers expect it held).
  mutable std::mutex mutex_;
  std::map<std::int64_t, Entry> entries_;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  mutable PrefetchState pf_;
};

}  // namespace pac::cache
