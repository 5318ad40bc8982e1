#include "dist/wire.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "obs/counters.hpp"

namespace pac::dist::wire {

namespace {

struct Header {
  std::uint32_t magic = 0;
  std::uint8_t type = 0;
  std::uint8_t flags = 0;
  std::uint8_t dtype = 0;
  std::uint8_t reserved = 0;
  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t body_len = 0;
};

static_assert(kHeaderBytes == 20, "wire header is 20 bytes");

void pack_header(const Header& h, std::uint8_t* out) {
  std::memcpy(out + 0, &h.magic, 4);
  std::memcpy(out + 4, &h.type, 1);
  std::memcpy(out + 5, &h.flags, 1);
  std::memcpy(out + 6, &h.dtype, 1);
  std::memcpy(out + 7, &h.reserved, 1);
  std::memcpy(out + 8, &h.src, 4);
  std::memcpy(out + 12, &h.tag, 4);
  std::memcpy(out + 16, &h.body_len, 4);
}

Header unpack_header(const std::uint8_t* in) {
  Header h;
  std::memcpy(&h.magic, in + 0, 4);
  std::memcpy(&h.type, in + 4, 1);
  std::memcpy(&h.flags, in + 5, 1);
  std::memcpy(&h.dtype, in + 6, 1);
  std::memcpy(&h.reserved, in + 7, 1);
  std::memcpy(&h.src, in + 8, 4);
  std::memcpy(&h.tag, in + 12, 4);
  std::memcpy(&h.body_len, in + 16, 4);
  return h;
}

std::vector<std::uint8_t> finish_frame(Header h, const std::string& body) {
  PAC_CHECK(body.size() <= kMaxBodyBytes,
            "payload too large for wire frame: " << body.size() << " bytes");
  h.body_len = static_cast<std::uint32_t>(body.size());
  std::vector<std::uint8_t> out(kHeaderBytes + body.size());
  pack_header(h, out.data());
  std::memcpy(out.data() + kHeaderBytes, body.data(), body.size());
  return out;
}

inline std::uint64_t rotl64(std::uint64_t x, int b) {
  return (x << b) | (x >> (64 - b));
}

}  // namespace

std::vector<std::uint8_t> encode_data(int src, int tag,
                                      const quant::QTensor& payload) {
  Header h;
  h.magic = kMagic;
  h.type = static_cast<std::uint8_t>(FrameType::kData);
  h.src = static_cast<std::int32_t>(src);
  h.tag = static_cast<std::int32_t>(tag);
  std::string body;
  if (payload.defined()) {
    h.flags = kFlagDefinedPayload;
    h.dtype = static_cast<std::uint8_t>(payload.dtype);
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    w.write_u32(static_cast<std::uint32_t>(payload.shape.size()));
    w.write_i64s(payload.shape.data(), payload.shape.size());
    w.write_floats(payload.scales.data(), payload.scales.size());
    w.write_bytes(payload.data.data(), payload.data.size());
    body = os.str();
  }
  return finish_frame(h, body);
}

std::vector<std::uint8_t> encode_control(FrameType type, int src) {
  Header h;
  h.magic = kMagic;
  h.type = static_cast<std::uint8_t>(type);
  h.src = static_cast<std::int32_t>(src);
  std::vector<std::uint8_t> out(kHeaderBytes);
  pack_header(h, out.data());
  return out;
}

std::vector<std::uint8_t> encode_resync(int src, std::uint32_t epoch,
                                        std::uint64_t delivered) {
  Header h;
  h.magic = kMagic;
  h.type = static_cast<std::uint8_t>(FrameType::kResync);
  h.src = static_cast<std::int32_t>(src);
  h.body_len = kResyncBodyBytes;
  std::vector<std::uint8_t> out(kHeaderBytes + kResyncBodyBytes);
  pack_header(h, out.data());
  std::memcpy(out.data() + kHeaderBytes, &epoch, 4);
  std::memcpy(out.data() + kHeaderBytes + 4, &delivered, 8);
  return out;
}

std::uint64_t siphash24(const AuthKey& key, const std::uint8_t* data,
                        std::size_t len) {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
  std::memcpy(&k0, key.data(), 8);
  std::memcpy(&k1, key.data() + 8, 8);
  std::uint64_t v0 = k0 ^ 0x736f6d6570736575ULL;
  std::uint64_t v1 = k1 ^ 0x646f72616e646f6dULL;
  std::uint64_t v2 = k0 ^ 0x6c7967656e657261ULL;
  std::uint64_t v3 = k1 ^ 0x7465646279746573ULL;
  const auto sipround = [&] {
    v0 += v1;
    v1 = rotl64(v1, 13);
    v1 ^= v0;
    v0 = rotl64(v0, 32);
    v2 += v3;
    v3 = rotl64(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl64(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl64(v1, 17);
    v1 ^= v2;
    v2 = rotl64(v2, 32);
  };
  const std::size_t tail = len & 7;
  const std::uint8_t* end = data + (len - tail);
  for (const std::uint8_t* p = data; p != end; p += 8) {
    std::uint64_t m = 0;
    std::memcpy(&m, p, 8);
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
  std::uint64_t b = static_cast<std::uint64_t>(len) << 56;
  for (std::size_t i = 0; i < tail; ++i) {
    b |= static_cast<std::uint64_t>(end[i]) << (8 * i);
  }
  v3 ^= b;
  sipround();
  sipround();
  v0 ^= b;
  v2 ^= 0xff;
  sipround();
  sipround();
  sipround();
  sipround();
  return v0 ^ v1 ^ v2 ^ v3;
}

void authenticate(std::vector<std::uint8_t>& frame, const AuthKey& key) {
  PAC_CHECK(frame.size() >= kHeaderBytes, "authenticate on a short frame");
  // The tag covers the header with the auth bit already set, so the flag
  // itself is tamper-evident.
  frame[5] |= kFlagAuthenticated;
  const std::uint64_t tag = siphash24(key, frame.data(), frame.size());
  const std::size_t off = frame.size();
  frame.resize(off + kAuthTagBytes);
  std::memcpy(frame.data() + off, &tag, kAuthTagBytes);
}

AuthKey key_from_hex(const std::string& hex) {
  if (hex.size() != 2 * kAuthKeyBytes) {
    throw TransportError("wire: auth key hex must be " +
                         std::to_string(2 * kAuthKeyBytes) + " chars, got " +
                         std::to_string(hex.size()));
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  AuthKey key{};
  for (std::size_t i = 0; i < kAuthKeyBytes; ++i) {
    const int hi = nibble(hex[2 * i]);
    const int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) throw TransportError("wire: bad hex in auth key");
    key[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return key;
}

std::string key_to_hex(const AuthKey& key) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * kAuthKeyBytes);
  for (const std::uint8_t b : key) {
    hex.push_back(digits[b >> 4]);
    hex.push_back(digits[b & 0xF]);
  }
  return hex;
}

void FrameDecoder::poison(const std::string& what) {
  poisoned_ = true;
  buffer_.clear();
  throw TransportError("wire: " + what);
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  if (poisoned_) throw TransportError("wire: decoder poisoned by bad frame");
  buffer_.insert(buffer_.end(), data, data + len);
}

std::optional<Frame> FrameDecoder::next() {
  if (poisoned_) throw TransportError("wire: decoder poisoned by bad frame");
  if (buffer_.size() < kHeaderBytes) return std::nullopt;
  std::uint8_t raw[kHeaderBytes];
  std::copy(buffer_.begin(), buffer_.begin() + kHeaderBytes, raw);
  const Header h = unpack_header(raw);
  if (h.magic != kMagic) poison("bad magic");
  if (h.reserved != 0) poison("nonzero reserved field");
  if (h.dtype > static_cast<std::uint8_t>(quant::Dtype::kI8)) {
    poison("unknown payload dtype " + std::to_string(h.dtype));
  }
  const auto type = static_cast<FrameType>(h.type);
  if (type != FrameType::kData && type != FrameType::kHello &&
      type != FrameType::kRankDead && type != FrameType::kClose &&
      type != FrameType::kRootDead && type != FrameType::kResync) {
    poison("unknown frame type " + std::to_string(h.type));
  }
  if (h.body_len > kMaxBodyBytes) {
    poison("oversized body: " + std::to_string(h.body_len) + " bytes");
  }
  if ((h.flags & ~(kFlagDefinedPayload | kFlagAuthenticated)) != 0) {
    poison("unknown flag bits " + std::to_string(h.flags));
  }
  const bool defined = (h.flags & kFlagDefinedPayload) != 0;
  const bool authed = (h.flags & kFlagAuthenticated) != 0;
  // An authenticated link rejects bare frames (tag stripping) and a bare
  // link rejects authenticated frames (no key to verify them with) — both
  // BEFORE waiting for the body, so a forged length can't stall the check.
  if (authed && !key_.has_value()) {
    poison("authenticated frame without a configured key");
  }
  if (!authed && key_.has_value()) {
    ++auth_failures_;
    obs::CounterRegistry::instance().add("wire.auth_fail", 1);
    poison("unauthenticated frame on an authenticated link");
  }
  if (type == FrameType::kResync) {
    if (defined) poison("flags on control frame");
    if (h.dtype != 0) poison("dtype on control frame");
    if (h.body_len != kResyncBodyBytes) {
      poison("resync body must be " + std::to_string(kResyncBodyBytes) +
             " bytes, got " + std::to_string(h.body_len));
    }
  } else if (type != FrameType::kData) {
    if (defined) poison("flags on control frame");
    if (h.dtype != 0) poison("dtype on control frame");
    if (h.body_len != 0) poison("control frame with body");
  } else if (!defined) {
    if (h.dtype != 0) poison("dtype on undefined payload");
    if (h.body_len != 0) poison("undefined payload with non-empty body");
  }
  if (type != FrameType::kClose && world_size_ > 0 &&
      (h.src < 0 || h.src >= world_size_)) {
    poison("source rank " + std::to_string(h.src) + " out of range");
  }
  const std::size_t total =
      kHeaderBytes + h.body_len + (authed ? kAuthTagBytes : 0);
  if (buffer_.size() < total) return std::nullopt;
  if (authed) {
    // Verify the MAC over header+body BEFORE any body parsing: a tampered
    // frame must never reach a mailbox (or even the tensor validator).
    std::vector<std::uint8_t> signed_bytes(
        buffer_.begin(), buffer_.begin() + kHeaderBytes + h.body_len);
    const std::uint64_t want =
        siphash24(*key_, signed_bytes.data(), signed_bytes.size());
    std::uint8_t tag_raw[kAuthTagBytes];
    std::copy(buffer_.begin() + kHeaderBytes + h.body_len,
              buffer_.begin() + static_cast<std::ptrdiff_t>(total), tag_raw);
    std::uint64_t got = 0;
    std::memcpy(&got, tag_raw, kAuthTagBytes);
    if (got != want) {
      ++auth_failures_;
      obs::CounterRegistry::instance().add("wire.auth_fail", 1);
      poison("frame authentication failed");
    }
  }

  Frame frame;
  frame.type = type;
  frame.src = static_cast<int>(h.src);
  frame.tag = static_cast<int>(h.tag);
  if (type == FrameType::kResync) {
    std::uint8_t body[kResyncBodyBytes];
    std::copy(buffer_.begin() + kHeaderBytes,
              buffer_.begin() + kHeaderBytes + kResyncBodyBytes, body);
    std::memcpy(&frame.resync_epoch, body, 4);
    std::memcpy(&frame.resync_delivered, body + 4, 8);
  } else if (type == FrameType::kData && defined) {
    // Validate the tensor body step by step so every read is bounds-checked
    // before it happens; lengths must tile the body exactly.
    std::string body(buffer_.begin() + kHeaderBytes,
                     buffer_.begin() + kHeaderBytes + h.body_len);
    std::istringstream is(body, std::ios::binary);
    BinaryReader r(is);
    if (h.body_len < 4) poison("tensor body shorter than its rank field");
    const std::uint32_t ndim = r.read_u32();
    // ndim == 0 is a rank-0 scalar (numel 1), legal on both ends.
    if (ndim > kMaxDims) {
      poison("tensor rank " + std::to_string(ndim) + " out of range");
    }
    if (h.body_len < 4 + 8ull * ndim) poison("tensor body truncates dims");
    Shape shape(ndim);
    r.read_i64s(shape.data(), ndim);
    const auto dtype = static_cast<quant::Dtype>(h.dtype);
    const std::uint64_t elem_bytes = quant::element_bytes(dtype);
    std::uint64_t numel = 1;
    for (std::int64_t d : shape) {
      if (d < 0) poison("negative tensor dimension");
      const auto ud = static_cast<std::uint64_t>(d);
      // Guard BEFORE multiplying: dims like [2^26, 2^38] would wrap numel
      // modulo 2^64 and sneak past an after-the-fact check.
      if (ud != 0 && numel > (kMaxBodyBytes / elem_bytes) / ud) {
        poison("tensor element count overflow");
      }
      numel *= ud;
    }
    // Per-row scale count for int8 (rows of the last dim; a rank-0 scalar
    // is one row).  Zero-numel tensors carry no rows and no scales.
    const std::uint64_t row_len =
        ndim == 0 ? 1 : static_cast<std::uint64_t>(shape.back());
    const std::uint64_t rows = row_len == 0 ? 0 : numel / row_len;
    const std::uint64_t scale_bytes =
        dtype == quant::Dtype::kI8 ? 4ull * rows : 0;
    const std::uint64_t expected =
        4 + 8ull * ndim + scale_bytes + elem_bytes * numel;
    if (expected != h.body_len) {
      poison("tensor body length mismatch: header says " +
             std::to_string(h.body_len) + ", dims imply " +
             std::to_string(expected));
    }
    quant::QTensor& q = frame.payload;
    q.dtype = dtype;
    q.shape = std::move(shape);
    q.scales.resize(static_cast<std::size_t>(scale_bytes / 4));
    r.read_floats(q.scales.data(), q.scales.size());
    q.data.resize(static_cast<std::size_t>(elem_bytes * numel));
    r.read_bytes(q.data.data(), q.data.size());
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  return frame;
}

}  // namespace pac::dist::wire
