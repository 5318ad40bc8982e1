#include "cache/activation_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>

#include "common/serialize.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace pac::cache {

namespace {

// First u64 of a spill file.
constexpr std::uint64_t kSpillMagic = 0x5041435153504C31ull;  // PACQSPL1

}  // namespace

ActivationCache::ActivationCache(CacheConfig config)
    : config_(std::move(config)) {
  PAC_CHECK(config_.num_blocks > 0, "cache needs num_blocks > 0");
  if (config_.disk_backed) {
    PAC_CHECK(!config_.directory.empty(),
              "disk-backed cache needs a directory");
    std::filesystem::create_directories(config_.directory);
  }
}

ActivationCache::~ActivationCache() {
  stop_prefetcher();
  // clear() refunds the ledger and removes spill files.
  try {
    clear();
  } catch (...) {
    // Destructor must not throw; ledger refunds cannot fail here in
    // practice (we only release what we charged).
  }
}

std::string ActivationCache::sample_path(std::int64_t sample_id) const {
  return config_.directory + "/sample_" + std::to_string(sample_id) + ".bin";
}

void ActivationCache::charge(std::uint64_t bytes) {
  if (config_.ledger != nullptr) {
    config_.ledger->allocate(dist::MemClass::kCache, bytes);
  }
  memory_bytes_ += bytes;
  obs::CounterRegistry::instance().high_water(
      "cache.bytes_resident", static_cast<std::int64_t>(memory_bytes_));
}

void ActivationCache::refund(std::uint64_t bytes) {
  if (config_.ledger != nullptr) {
    config_.ledger->release(dist::MemClass::kCache, bytes);
  }
  memory_bytes_ -= bytes;
}

void ActivationCache::record(const std::vector<std::int64_t>& sample_ids,
                             std::int64_t block_index, const Tensor& hidden) {
  PAC_CHECK(hidden.dim() == 3, "record expects [n, T, H] activations");
  PAC_CHECK(hidden.size(0) == static_cast<std::int64_t>(sample_ids.size()),
            "record: " << sample_ids.size() << " ids for " << hidden.size(0)
                       << " rows");
  PAC_TRACE_SCOPE("cache_store", block_index);
  const std::int64_t t = hidden.size(1);
  const std::int64_t h = hidden.size(2);
  std::lock_guard<std::mutex> lk(mutex_);
  for (std::size_t r = 0; r < sample_ids.size(); ++r) {
    // Repack straight off the batch row — no fp32 clone on the way in.
    const float* row = hidden.data() + static_cast<std::int64_t>(r) * t * h;
    put_block_locked(sample_ids[r], block_index,
                     quant::quantize_rows(row, {t, h}, config_.dtype));
  }
}

void ActivationCache::put_block(std::int64_t sample_id,
                                std::int64_t block_index,
                                quant::QTensor payload) {
  std::lock_guard<std::mutex> lk(mutex_);
  put_block_locked(sample_id, block_index, std::move(payload));
}

void ActivationCache::put_block_locked(std::int64_t sample_id,
                                       std::int64_t block_index,
                                       quant::QTensor q) {
  PAC_CHECK(q.defined(), "put_block of an undefined block");
  PAC_CHECK(block_index >= 0 && block_index < config_.num_blocks,
            "block index " << block_index << " out of range");
  if (q.dtype != config_.dtype) {
    // Mismatched representation: go through fp32 (one requantization).
    q = quant::quantize(quant::dequantize(q), config_.dtype);
  }
  Entry& entry = entries_[sample_id];
  if (entry.blocks.empty()) {
    entry.blocks.resize(static_cast<std::size_t>(config_.num_blocks));
  }
  PAC_CHECK(!entry.spilled, "put_block on spilled sample " << sample_id);
  quant::QTensor& slot = entry.blocks[static_cast<std::size_t>(block_index)];
  PAC_CHECK(!slot.defined(), "duplicate record for sample "
                                 << sample_id << " block " << block_index);
  charge(q.byte_size());
  if (config_.dtype != quant::Dtype::kF32) {
    const std::uint64_t fp32_bytes =
        static_cast<std::uint64_t>(q.numel()) * 4;
    obs::CounterRegistry::instance().add(
        "cache.bytes_quantized_saved",
        static_cast<std::int64_t>(fp32_bytes - q.byte_size()));
  }
  slot = std::move(q);
  ++entry.present;
  maybe_spill(sample_id, entry);
}

void ActivationCache::maybe_spill(std::int64_t sample_id, Entry& entry) {
  if (!config_.disk_backed || entry.present < config_.num_blocks) return;
  PAC_TRACE_SCOPE("cache_spill", sample_id);
  obs::CounterRegistry::instance().add("cache.spills", 1);
  std::ofstream out(sample_path(sample_id), std::ios::binary);
  PAC_CHECK(out.good(), "cannot open spill file for sample " << sample_id);
  // Sentinel, dtype, then per-block dims, scales, and raw element bytes.
  BinaryWriter w(out);
  w.write_u64(kSpillMagic);
  w.write_u32(static_cast<std::uint32_t>(config_.dtype));
  w.write_u64(static_cast<std::uint64_t>(config_.num_blocks));
  std::uint64_t freed = 0;
  for (quant::QTensor& q : entry.blocks) {
    w.write_u64(static_cast<std::uint64_t>(q.shape[0]));
    w.write_u64(static_cast<std::uint64_t>(q.shape[1]));
    w.write_u64(static_cast<std::uint64_t>(q.scales.size()));
    w.write_floats(q.scales.data(), q.scales.size());
    w.write_u64(static_cast<std::uint64_t>(q.data.size()));
    w.write_bytes(q.data.data(), q.data.size());
    freed += q.byte_size();
    q = quant::QTensor{};
  }
  refund(freed);
  entry.spilled = true;
  entry.spilled_bytes = freed;
  spilled_bytes_ += freed;
}

ActivationCache::Entry ActivationCache::read_spilled_entry(std::istream& in) {
  BinaryReader r(in);
  PAC_CHECK(r.read_u64() == kSpillMagic, "not a cache spill file");
  const auto dtype = static_cast<quant::Dtype>(r.read_u32());
  PAC_CHECK(dtype <= quant::Dtype::kI8, "spill file with bad dtype");
  const std::uint64_t blocks = r.read_u64();
  Entry entry;
  entry.blocks.resize(blocks);
  for (quant::QTensor& q : entry.blocks) {
    q.dtype = dtype;
    const std::int64_t t = static_cast<std::int64_t>(r.read_u64());
    const std::int64_t h = static_cast<std::int64_t>(r.read_u64());
    q.shape = {t, h};
    // A torn file can carry bogus lengths; cap each resize to what the
    // shape implies so we fail via the stream, not a huge allocation.
    const std::uint64_t nscales = r.read_u64();
    PAC_CHECK(nscales == (dtype == quant::Dtype::kI8
                              ? static_cast<std::uint64_t>(q.rows())
                              : 0),
              "spill block scale count mismatch");
    q.scales.resize(nscales);
    r.read_floats(q.scales.data(), q.scales.size());
    const std::uint64_t nbytes = r.read_u64();
    PAC_CHECK(nbytes == static_cast<std::uint64_t>(q.numel()) *
                            quant::element_bytes(dtype),
              "spill block length mismatch");
    q.data.resize(nbytes);
    r.read_bytes(q.data.data(), q.data.size());
  }
  entry.present = static_cast<std::int64_t>(blocks);
  return entry;
}

ActivationCache::Entry ActivationCache::load_spilled(
    std::int64_t sample_id) const {
  PAC_TRACE_SCOPE("cache_load", sample_id);
  std::ifstream in(sample_path(sample_id), std::ios::binary);
  if (!in.good()) {
    throw CacheMissError("spill file missing for sample " +
                         std::to_string(sample_id));
  }
  return read_spilled_entry(in);
}

// ---- background prefetcher ---------------------------------------------

void ActivationCache::prefetch(
    const std::vector<std::int64_t>& sample_ids) const {
  if (!config_.disk_backed || sample_ids.empty()) return;
  std::lock_guard<std::mutex> lk(mutex_);
  if (pf_.stop) return;
  // Coalesce: a fresh announcement supersedes one the reader has not
  // picked up yet (the runner announces exactly the next step's batch).
  pf_.request = sample_ids;
  pf_.has_request = true;
  obs::CounterRegistry::instance().add("cache.prefetch_requests", 1);
  if (!pf_.running) {
    pf_.running = true;
    pf_.thread = std::thread([this] { prefetch_main(); });
  }
  pf_.work.notify_one();
}

void ActivationCache::prefetch_main() const {
  const int device =
      config_.ledger != nullptr ? config_.ledger->device_id() : 0;
  obs::set_thread_name("cache/prefetch", device);
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    pf_.work.wait(lk, [&] { return pf_.stop || pf_.has_request; });
    if (pf_.stop) break;
    const std::vector<std::int64_t> ids = std::move(pf_.request);
    pf_.request.clear();
    pf_.has_request = false;
    // Only spilled samples that are not already staged need disk reads.
    std::vector<std::int64_t> to_load;
    for (std::int64_t id : ids) {
      auto it = entries_.find(id);
      if (it != entries_.end() && it->second.spilled &&
          pf_.staged.find(id) == pf_.staged.end()) {
        to_load.push_back(id);
      }
    }
    pf_.inflight = to_load;
    pf_.busy = true;
    lk.unlock();

    std::map<std::int64_t, Entry> fresh;
    {
      PAC_TRACE_SCOPE("cache_prefetch",
                      static_cast<std::int64_t>(to_load.size()));
      for (std::int64_t id : to_load) {
        try {
          fresh[id] = load_spilled(id);
        } catch (...) {
          // Advisory only: a failed staging read falls back to the
          // synchronous path inside fetch(), which reports the error.
        }
      }
    }

    lk.lock();
    if (!pf_.stop) {
      for (auto& [id, entry] : fresh) {
        // Re-validate: the sample may have been dropped while we read.
        auto it = entries_.find(id);
        if (it != entries_.end() && it->second.spilled) {
          pf_.staged[id] = std::move(entry);
        }
      }
    }
    pf_.busy = false;
    pf_.inflight.clear();
    pf_.staged_ready.notify_all();
  }
}

void ActivationCache::stop_prefetcher() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (!pf_.running) return;
  pf_.stop = true;
  pf_.work.notify_all();
  lk.unlock();
  pf_.thread.join();
  lk.lock();
  pf_.running = false;
  pf_.staged.clear();
}

// ---- serving ------------------------------------------------------------

std::vector<Tensor> ActivationCache::fetch(
    const std::vector<std::int64_t>& sample_ids) const {
  PAC_CHECK(!sample_ids.empty(), "fetch with no sample ids");
  PAC_TRACE_SCOPE("cache_fetch",
                  static_cast<std::int64_t>(sample_ids.size()));
  std::unique_lock<std::mutex> lk(mutex_);

  // Pass 1: materialize every spilled sample — from the prefetcher's
  // staging buffer when possible, reloading synchronously otherwise.
  std::map<std::int64_t, Entry> loaded;
  for (std::int64_t id : sample_ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      throw CacheMissError("sample " + std::to_string(id) +
                           " not in this cache shard");
    }
    if (!it->second.spilled || loaded.find(id) != loaded.end()) {
      if (!it->second.spilled) {
        obs::CounterRegistry::instance().add("cache.hits", 1);
      }
      continue;
    }
    if (pf_.busy && std::find(pf_.inflight.begin(), pf_.inflight.end(),
                              id) != pf_.inflight.end()) {
      // The reader is staging exactly this sample; wait instead of racing
      // it to the disk.
      pf_.staged_ready.wait(lk, [&] { return !pf_.busy || pf_.stop; });
    }
    auto staged = pf_.staged.find(id);
    if (staged != pf_.staged.end()) {
      loaded[id] = std::move(staged->second);
      pf_.staged.erase(staged);
      obs::CounterRegistry::instance().add("cache.prefetch_hits", 1);
      continue;
    }
    obs::CounterRegistry::instance().add("cache.misses", 1);
    lk.unlock();
    Entry entry = load_spilled(id);
    lk.lock();
    loaded[id] = std::move(entry);
  }

  // Pass 2 (lock held throughout): assemble per-block batches [n, T, H],
  // dequantizing every stored block straight into the batch rows.
  std::vector<const Entry*> sources;
  for (std::int64_t id : sample_ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      throw CacheMissError("sample " + std::to_string(id) +
                           " not in this cache shard");
    }
    if (it->second.spilled) {
      sources.push_back(&loaded.at(id));
    } else {
      PAC_CHECK(it->second.present == config_.num_blocks,
                "sample " << id << " is incomplete ("
                          << it->second.present << "/" << config_.num_blocks
                          << " blocks)");
      sources.push_back(&it->second);
    }
  }
  std::vector<Tensor> out;
  const std::int64_t n = static_cast<std::int64_t>(sample_ids.size());
  for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
    const auto block = static_cast<std::size_t>(b);
    const std::int64_t bt = sources[0]->blocks[block].shape[0];
    const std::int64_t bh = sources[0]->blocks[block].shape[1];
    Tensor batch({n, bt, bh});
    for (std::int64_t r = 0; r < n; ++r) {
      const quant::QTensor& q =
          sources[static_cast<std::size_t>(r)]->blocks[block];
      PAC_CHECK(q.numel() == bt * bh,
                "inconsistent cached shapes across samples");
      quant::dequantize_into(q, batch.data() + r * bt * bh);
    }
    out.push_back(std::move(batch));
  }
  return out;
}

bool ActivationCache::has_block(std::int64_t sample_id,
                                std::int64_t block_index) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = entries_.find(sample_id);
  if (it == entries_.end()) return false;
  if (it->second.spilled) return true;  // spill implies complete
  if (block_index < 0 || block_index >= config_.num_blocks) return false;
  return it->second.blocks[static_cast<std::size_t>(block_index)].defined();
}

bool ActivationCache::complete(std::int64_t sample_id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = entries_.find(sample_id);
  return it != entries_.end() &&
         (it->second.spilled || it->second.present == config_.num_blocks);
}

std::vector<std::int64_t> ActivationCache::sample_ids() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<std::int64_t> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) out.push_back(id);
  return out;
}

std::vector<std::pair<std::int64_t, std::int64_t>>
ActivationCache::held_blocks() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.spilled) {
      for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
        out.emplace_back(id, b);
      }
      continue;
    }
    for (std::int64_t b = 0; b < config_.num_blocks; ++b) {
      if (entry.blocks[static_cast<std::size_t>(b)].defined()) {
        out.emplace_back(id, b);
      }
    }
  }
  return out;
}

Tensor ActivationCache::get_block(std::int64_t sample_id,
                                  std::int64_t block_index) const {
  const std::vector<quant::QTensor> blocks = get_blocks(sample_id);
  PAC_CHECK(block_index >= 0 && block_index < config_.num_blocks,
            "block index out of range");
  const quant::QTensor& q = blocks[static_cast<std::size_t>(block_index)];
  if (!q.defined()) {
    throw CacheMissError("block " + std::to_string(block_index) +
                         " of sample " + std::to_string(sample_id) +
                         " not recorded");
  }
  return quant::dequantize(q);
}

std::vector<quant::QTensor> ActivationCache::get_blocks(
    std::int64_t sample_id) const {
  std::lock_guard<std::mutex> lk(mutex_);
  auto it = entries_.find(sample_id);
  if (it == entries_.end()) {
    throw CacheMissError("sample " + std::to_string(sample_id) +
                         " not in this cache shard");
  }
  if (it->second.spilled) return load_spilled(sample_id).blocks;
  return it->second.blocks;
}

void ActivationCache::drop_sample(std::int64_t sample_id) {
  std::lock_guard<std::mutex> lk(mutex_);
  drop_sample_locked(sample_id);
}

void ActivationCache::drop_sample_locked(std::int64_t sample_id) {
  auto it = entries_.find(sample_id);
  if (it == entries_.end()) return;
  std::uint64_t resident = 0;
  for (const quant::QTensor& block : it->second.blocks) {
    resident += block.byte_size();
  }
  refund(resident);
  if (it->second.spilled) {
    spilled_bytes_ -= it->second.spilled_bytes;
    std::filesystem::remove(sample_path(sample_id));
  }
  pf_.staged.erase(sample_id);
  entries_.erase(it);
}

std::int64_t ActivationCache::absorb_spilled_directory(
    const std::string& directory) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(directory)) return 0;
  // Directory iteration order is unspecified; sort the ids so every
  // salvager (and every run) absorbs in the same order.
  std::vector<std::int64_t> ids;
  for (const auto& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 11 || name.rfind("sample_", 0) != 0 ||
        name.substr(name.size() - 4) != ".bin") {
      continue;
    }
    try {
      ids.push_back(std::stoll(name.substr(7, name.size() - 11)));
    } catch (...) {
      // Not one of ours; skip.
    }
  }
  std::sort(ids.begin(), ids.end());

  std::lock_guard<std::mutex> lk(mutex_);
  std::int64_t absorbed = 0;
  for (std::int64_t id : ids) {
    if (entries_.find(id) != entries_.end()) continue;
    std::ifstream in(directory + "/sample_" + std::to_string(id) + ".bin",
                     std::ios::binary);
    if (!in.good()) continue;
    try {
      Entry loaded = read_spilled_entry(in);
      for (std::size_t b = 0; b < loaded.blocks.size(); ++b) {
        put_block_locked(id, static_cast<std::int64_t>(b),
                         std::move(loaded.blocks[b]));
      }
      ++absorbed;
    } catch (...) {
      // A writer killed mid-spill leaves a torn file; drop the partial
      // sample rather than surfacing a corrupt activation.
      drop_sample_locked(id);
    }
  }
  return absorbed;
}

std::uint64_t ActivationCache::memory_bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return memory_bytes_;
}

std::uint64_t ActivationCache::total_bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return memory_bytes_ + spilled_bytes_;
}

void ActivationCache::clear() {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<std::int64_t> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  for (std::int64_t id : ids) drop_sample_locked(id);
}

}  // namespace pac::cache
