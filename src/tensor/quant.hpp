// Reduced-precision tensor storage for the activation cache and the wire.
//
// Two compressed formats next to fp32:
//   fp16 — IEEE half with round-to-nearest-even, 2 bytes/element.  The
//          conversion is exactly the F16C semantics; the scalar fallback is
//          bit-identical to the hardware instruction so a cache written on
//          an AVX box reads back the same bytes everywhere.
//   int8 — symmetric per-row (last-dim) absmax scaling, 1 byte/element plus
//          one f32 scale per row: scale = absmax / 127, q = rne(x * 127 /
//          absmax) clamped to [-127, 127], dequant x' = q * scale.  The
//          per-row error is bounded by half a quantization step
//          (|x - x'| <= scale * (0.5 + eps)), the envelope the property
//          test in tests/quant_test.cpp asserts over 200 random trials.
//
// quantize/dequantize are the only entry points the cache and transports
// use; both dispatch AVX-512 / AVX2+F16C / scalar at compile time like the
// GEMM micro-kernel (quant.cpp is the second TU on -march=native — see
// src/tensor/CMakeLists.txt).  A kF32 QTensor is a bit-exact repack of the
// float storage, so QTensor is the one payload type the mailboxes, wire
// frames and cache shards carry: fp32 traffic travels as kF32 and its wire
// frames stay byte-identical to the original fp32 encoding.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace pac::quant {

enum class Dtype : std::uint8_t { kF32 = 0, kF16 = 1, kI8 = 2 };

inline constexpr std::size_t element_bytes(Dtype d) {
  return d == Dtype::kF32 ? 4u : d == Dtype::kF16 ? 2u : 1u;
}

const char* dtype_name(Dtype d);

// Compressed tensor: raw element storage plus (int8 only) per-row scales.
// Rows are the last dimension's vectors; a rank-0 scalar is one row of one
// element.  Carried by value through mailboxes and wire frames.  A
// default-constructed QTensor (no shape, no bytes) is the undefined
// payload, the counterpart of Tensor(): every defined tensor, even a rank-0
// scalar, owns at least one element byte.
struct QTensor {
  Dtype dtype = Dtype::kF32;
  Shape shape;
  std::vector<std::uint8_t> data;  // numel * element_bytes(dtype)
  std::vector<float> scales;       // int8: rows() entries, else empty

  bool defined() const { return !shape.empty() || !data.empty(); }
  std::int64_t numel() const {
    std::int64_t n = 1;
    for (std::int64_t d : shape) n *= d;
    return n;
  }
  std::int64_t row_len() const {
    return shape.empty() ? 1 : shape.back();
  }
  std::int64_t rows() const {
    const std::int64_t len = row_len();
    return len == 0 ? 0 : numel() / len;
  }
  // Payload bytes (what the ledger and the wire are charged).
  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(data.size()) +
           4ull * scales.size();
  }
};

// Compress a contiguous fp32 tensor.  kF32 is a bit-exact repack; an
// undefined tensor maps to the undefined QTensor.
QTensor quantize(const Tensor& t, Dtype dtype = Dtype::kF32);
// Same, straight from a raw contiguous buffer (the cache quantizes batch
// row slices without materialising a Tensor clone first).
QTensor quantize_rows(const float* src, Shape shape, Dtype dtype);

// Inverse of quantize (the undefined QTensor maps back to Tensor()).
Tensor dequantize(const QTensor& q);
// Decompress into caller-owned storage of q.numel() floats (the cache
// writes straight into the assembled [n, T, H] batch).
void dequantize_into(const QTensor& q, float* dst);

// Scalar conversion primitives, exposed so tests can pin the format:
// bit-identical to the F16C / AVX round-to-nearest-even paths.
std::uint16_t f32_to_f16(float f);
float f16_to_f32(std::uint16_t h);

}  // namespace pac::quant
