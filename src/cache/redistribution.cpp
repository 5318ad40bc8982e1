#include "cache/redistribution.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "obs/counters.hpp"
#include "pipeline/stage_worker.hpp"  // tag constants

namespace pac::cache {

namespace {

// Frame headers carry ids as floats, which hold integers exactly below
// 2^24; a larger id would silently round to a neighbour's.
float exact_header_field(std::int64_t value, const char* what) {
  constexpr std::int64_t kExactFloatLimit = std::int64_t{1} << 24;
  PAC_CHECK(value >= 0 && value < kExactFloatLimit,
            what << " " << value << " does not fit a frame header exactly");
  return static_cast<float>(value);
}

// One frame under construction: the (sample, block, rows) header rows and
// the blocks' stored rows concatenated into one [sum rows, row_len] tensor.
struct Frame {
  std::vector<float> header;
  quant::QTensor payload;

  bool empty() const { return header.empty(); }
  // A block joins this frame only if it shares the stored representation
  // and the frame stays under the byte cap (a lone oversized block still
  // gets a frame of its own).
  bool accepts(const quant::QTensor& block) const {
    return empty() ||
           (block.dtype == payload.dtype &&
            block.row_len() == payload.row_len() &&
            payload.byte_size() + block.byte_size() <= kRedistFrameBytes);
  }
  void append(std::int64_t sample, std::int64_t block,
              const quant::QTensor& q) {
    PAC_CHECK(q.shape.size() == 2,
              "cached block (" << sample << ", " << block
                               << ") is not a [T, H] matrix");
    if (empty()) {
      payload.dtype = q.dtype;
      payload.shape = {0, q.row_len()};
    }
    header.push_back(exact_header_field(sample, "sample id"));
    header.push_back(exact_header_field(block, "block index"));
    header.push_back(exact_header_field(q.rows(), "block rows"));
    payload.shape[0] += q.rows();
    payload.data.insert(payload.data.end(), q.data.begin(), q.data.end());
    payload.scales.insert(payload.scales.end(), q.scales.begin(),
                          q.scales.end());
  }
};

// Splits a received frame back into its blocks, in the sender's order.
void unpack_frame(const Tensor& header, const quant::QTensor& payload,
                  ActivationCache& shard, RedistStats& stats) {
  PAC_CHECK(header.dim() == 2 && header.size(1) == 3,
            "malformed redistribution frame header");
  const std::int64_t row_len = payload.row_len();
  const std::size_t row_bytes = static_cast<std::size_t>(row_len) *
                                quant::element_bytes(payload.dtype);
  const bool scaled = !payload.scales.empty();
  PAC_CHECK(payload.data.size() ==
                    static_cast<std::size_t>(payload.rows()) * row_bytes &&
                (!scaled || payload.scales.size() ==
                                static_cast<std::size_t>(payload.rows())),
            "malformed redistribution frame payload");
  std::int64_t row = 0;
  for (std::int64_t i = 0; i < header.size(0); ++i) {
    const auto sample = static_cast<std::int64_t>(header.at({i, 0}));
    const auto block = static_cast<std::int64_t>(header.at({i, 1}));
    const auto rows = static_cast<std::int64_t>(header.at({i, 2}));
    PAC_CHECK(rows >= 0 && row + rows <= payload.rows(),
              "redistribution frame header overruns its payload");
    quant::QTensor q;
    q.dtype = payload.dtype;
    q.shape = {rows, row_len};
    const auto first = payload.data.begin() +
                       static_cast<std::ptrdiff_t>(row) *
                           static_cast<std::ptrdiff_t>(row_bytes);
    q.data.assign(first, first + static_cast<std::ptrdiff_t>(rows) *
                                     static_cast<std::ptrdiff_t>(row_bytes));
    if (scaled) {
      const auto s = payload.scales.begin() + row;
      q.scales.assign(s, s + rows);
    }
    row += rows;
    shard.put_block(sample, block, std::move(q));
    ++stats.items_received;
  }
  PAC_CHECK(row == payload.rows(),
            "redistribution frame payload has rows no header names");
}

}  // namespace

RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample,
    const std::vector<int>& group) {
  RedistStats stats;
  const int me = ctx.rank;
  const int tag_count = pipeline::tags::kRedistCacheBase;
  const int tag_header = pipeline::tags::kRedistCacheBase + 1;
  const int tag_payload = pipeline::tags::kRedistCacheBase + 2;
  const std::set<int> members(group.begin(), group.end());
  PAC_CHECK(members.count(me) == 1,
            "redistribute_cache group must contain the calling rank");

  // Partition the samples holding blocks by destination, in id order.
  std::map<int, std::vector<std::int64_t>> outgoing;
  std::set<std::int64_t> shipped_samples;
  for (const auto& [sample, block] : shard.held_blocks()) {
    const int dst = target_of_sample(sample);
    PAC_CHECK(members.count(dst) == 1,
              "redistribution target " << dst << " is not in the group");
    if (dst == me || !shipped_samples.insert(sample).second) continue;
    outgoing[dst].push_back(sample);
  }

  // Stream each peer its blocks as frames, then a trailer with the frame
  // count.  Sends never block, so issuing all sends before any recv is
  // deadlock-free.  Blocks travel in their stored representation (a
  // bit-exact kF32 repack for fp32 shards), so the move is lossless for
  // every cache dtype.
  for (int peer : group) {
    if (peer == me) continue;
    std::int64_t frames = 0;
    Frame frame;
    auto ship = [&] {
      const auto k = static_cast<std::int64_t>(frame.header.size() / 3);
      ctx.comm.send(peer, tag_header,
                    Tensor::from_vector({k, 3}, frame.header));
      ctx.comm.send(peer, tag_payload, frame.payload);
      frame = Frame{};
      ++frames;
    };
    const auto it = outgoing.find(peer);
    if (it != outgoing.end()) {
      for (std::int64_t sample : it->second) {
        // One read per sample: a spilled sample's file is parsed once.
        const std::vector<quant::QTensor> blocks = shard.get_blocks(sample);
        for (std::size_t block = 0; block < blocks.size(); ++block) {
          const quant::QTensor& q = blocks[block];
          if (!q.defined()) continue;
          if (!frame.accepts(q)) ship();
          frame.append(sample, static_cast<std::int64_t>(block), q);
          stats.payload_bytes_sent += q.byte_size();
          ++stats.items_sent;
        }
      }
      if (!frame.empty()) ship();
    }
    ctx.comm.send(peer, tag_count,
                  Tensor::full({1}, static_cast<float>(frames)));
    stats.frames_sent += static_cast<std::uint64_t>(frames);
  }

  // Receive from every peer, in group order.
  for (int peer : group) {
    if (peer == me) continue;
    const auto frames = static_cast<std::int64_t>(
        ctx.comm.recv(peer, tag_count).at({0}));
    for (std::int64_t f = 0; f < frames; ++f) {
      const Tensor header = ctx.comm.recv(peer, tag_header);
      unpack_frame(header, ctx.comm.recv_payload(peer, tag_payload), shard,
                   stats);
    }
  }
  obs::CounterRegistry::instance().add(
      "cache.redist_frames", static_cast<std::int64_t>(stats.frames_sent));

  // Drop everything we shipped away.
  for (std::int64_t sample : shipped_samples) {
    shard.drop_sample(sample);
  }
  return stats;
}

RedistStats redistribute_cache(
    dist::DeviceContext& ctx, ActivationCache& shard,
    const std::function<int(std::int64_t)>& target_of_sample) {
  std::vector<int> everyone(static_cast<std::size_t>(ctx.world_size));
  std::iota(everyone.begin(), everyone.end(), 0);
  return redistribute_cache(ctx, shard, target_of_sample, everyone);
}

std::vector<std::pair<std::int64_t, std::int64_t>> weighted_sample_ranges(
    const std::vector<double>& weights, std::int64_t num_samples,
    const std::vector<std::int64_t>* max_samples) {
  const std::size_t n = weights.size();
  PAC_CHECK(n > 0, "weighted sharding needs at least one device");
  PAC_CHECK(num_samples >= 0, "negative sample count");
  double weight_sum = 0.0;
  for (double w : weights) {
    PAC_CHECK(w > 0.0, "weighted sharding needs positive weights");
    weight_sum += w;
  }
  auto cap = [&](std::size_t i) {
    if (max_samples == nullptr) return num_samples;
    PAC_CHECK(max_samples->size() == n, "need one sample cap per device");
    PAC_CHECK((*max_samples)[i] >= 0, "negative sample cap");
    return std::min((*max_samples)[i], num_samples);
  };

  // Largest-remainder apportionment of the exact quotas.
  std::vector<std::int64_t> counts(n, 0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (-frac, index)
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double quota =
        static_cast<double>(num_samples) * weights[i] / weight_sum;
    counts[i] = std::min(static_cast<std::int64_t>(quota), cap(i));
    assigned += counts[i];
    remainders.emplace_back(-(quota - static_cast<double>(counts[i])), i);
  }
  // Leftovers go to the largest fractional parts first (index breaks ties
  // so the split is deterministic), skipping devices at their cap; any
  // residue after a full sweep means the caps cannot hold the dataset.
  std::sort(remainders.begin(), remainders.end());
  while (assigned < num_samples) {
    const std::int64_t before = assigned;
    for (const auto& [neg_frac, i] : remainders) {
      if (assigned == num_samples) break;
      if (counts[i] >= cap(i)) continue;
      ++counts[i];
      ++assigned;
    }
    PAC_CHECK(assigned > before,
              "per-device sample caps cannot hold " << num_samples
                                                    << " samples");
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::int64_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ranges.emplace_back(begin, begin + counts[i]);
    begin += counts[i];
  }
  return ranges;
}

std::function<int(std::int64_t)> weighted_sharding_over(
    std::vector<int> ranks, const std::vector<double>& weights,
    std::int64_t num_samples, const std::vector<std::int64_t>* max_samples) {
  PAC_CHECK(ranks.size() == weights.size(),
            "weighted sharding needs one weight per rank");
  const auto ranges = weighted_sample_ranges(weights, num_samples,
                                             max_samples);
  // Range ends are the sorted cut points; upper_bound finds the owner.
  std::vector<std::int64_t> ends;
  for (const auto& [begin, end] : ranges) ends.push_back(end);
  return [ranks = std::move(ranks), ends = std::move(ends),
          num_samples](std::int64_t sample_id) {
    PAC_CHECK(sample_id >= 0 && sample_id < num_samples,
              "sample " << sample_id << " outside the sharded range");
    const auto it = std::upper_bound(ends.begin(), ends.end(), sample_id);
    PAC_CHECK(it != ends.end(), "sample " << sample_id << " unassigned");
    return ranks[static_cast<std::size_t>(it - ends.begin())];
  };
}

}  // namespace pac::cache
