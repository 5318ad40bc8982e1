#include "tensor/quant.hpp"

#include <cmath>
#include <cstring>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

// Like gemm.cpp, this TU is compiled with the host's full SIMD width when
// PAC_NATIVE_KERNELS is on; the kernels below select AVX-512 / AVX2(+F16C)
// / scalar at compile time.  Every vector path must produce bytes identical
// to the scalar one: fp16 uses the hardware RNE conversion whose semantics
// f32_to_f16 replicates exactly, and int8 rounds with the default MXCSR
// round-to-nearest-even that nearbyintf matches.

namespace pac::quant {

const char* dtype_name(Dtype d) {
  switch (d) {
    case Dtype::kF32:
      return "fp32";
    case Dtype::kF16:
      return "fp16";
    case Dtype::kI8:
      return "int8";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// fp16 scalar conversion (IEEE binary16, round-to-nearest-even) — the
// reference semantics; F16C produces the same bits.

std::uint16_t f32_to_f16(float f) {
  std::uint32_t x;
  std::memcpy(&x, &f, 4);
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  x &= 0x7FFFFFFFu;
  if (x >= 0x47800000u) {  // |f| >= 65536: overflow, inf, or NaN
    if (x > 0x7F800000u) return sign | 0x7E00u;  // NaN -> quiet half NaN
    return sign | 0x7C00u;                       // +-inf
  }
  if (x < 0x38800000u) {  // |f| < 2^-14: half subnormal or zero
    // Subnormal half mantissa = round(|f| / 2^-24); with the implicit bit
    // restored that is the fp32 mantissa shifted down by 126 - exp.
    const std::uint32_t exp = x >> 23;
    const std::uint32_t shift = 126u - exp;  // bits dropped off the mantissa
    if (shift > 31) return sign;             // too small even to round up
    const std::uint32_t mant = (x & 0x7FFFFFu) | 0x800000u;
    std::uint16_t h = sign | static_cast<std::uint16_t>(mant >> shift);
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1u);
    if (rem > half || (rem == half && (h & 1u))) ++h;
    return h;
  }
  const std::uint32_t mant = x & 0x7FFFFFu;
  const std::uint32_t exp = (x >> 23) - 112u;  // rebias 127 -> 15
  std::uint16_t h = sign | static_cast<std::uint16_t>(exp << 10) |
                    static_cast<std::uint16_t>(mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  // RNE; a mantissa carry correctly bumps the exponent (up to inf).
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;
  return h;
}

float f16_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t exp = (h >> 10) & 0x1Fu;
  std::uint32_t mant = h & 0x3FFu;
  std::uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;
    } else {
      // Normalize the subnormal: shift until the implicit bit appears.
      exp = 1;
      while (!(mant & 0x400u)) {
        mant <<= 1;
        --exp;
      }
      x = sign | ((exp + 112u) << 23) | ((mant & 0x3FFu) << 13);
    }
  } else if (exp == 31) {
    x = sign | 0x7F800000u | (mant << 13);
  } else {
    x = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, 4);
  return f;
}

namespace {

// ---------------------------------------------------------------------------
// fp16 bulk conversion

void encode_f16(const float* src, std::uint16_t* dst, std::int64_t n) {
  std::int64_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(src + i);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
#elif defined(__AVX2__) && defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
  }
#endif
  for (; i < n; ++i) dst[i] = f32_to_f16(src[i]);
}

void decode_f16(const std::uint16_t* src, float* dst, std::int64_t n) {
  std::int64_t i = 0;
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
  }
#elif defined(__AVX2__) && defined(__F16C__)
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
#endif
  for (; i < n; ++i) dst[i] = f16_to_f32(src[i]);
}

// ---------------------------------------------------------------------------
// int8 symmetric per-row absmax

float row_absmax(const float* src, std::int64_t n) {
  std::int64_t i = 0;
  float result = 0.0F;
#if defined(__AVX512F__)
  if (n >= 16) {
    __m512 acc = _mm512_setzero_ps();
    for (; i + 16 <= n; i += 16) {
      acc = _mm512_max_ps(acc, _mm512_abs_ps(_mm512_loadu_ps(src + i)));
    }
    result = _mm512_reduce_max_ps(acc);
  }
#elif defined(__AVX2__)
  if (n >= 8) {
    const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    __m256 acc = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      acc = _mm256_max_ps(acc, _mm256_and_ps(mask, _mm256_loadu_ps(src + i)));
    }
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(acc),
                          _mm256_extractf128_ps(acc, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    result = _mm_cvtss_f32(m);
  }
#endif
  for (; i < n; ++i) result = std::max(result, std::fabs(src[i]));
  return result;
}

// q = rne(x * inv) clamped to [-127, 127].  `inv` (= 127 / absmax) is a
// per-row constant so the scalar tail and the vector body agree bit-for-bit.
void encode_i8_row(const float* src, std::int8_t* dst, std::int64_t n,
                   float inv) {
  std::int64_t i = 0;
#if defined(__AVX512F__)
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i lo = _mm512_set1_epi32(-127);
  const __m512i hi = _mm512_set1_epi32(127);
  for (; i + 16 <= n; i += 16) {
    // cvtps_epi32 rounds with the default MXCSR mode: nearest-even.
    __m512i q = _mm512_cvtps_epi32(
        _mm512_mul_ps(_mm512_loadu_ps(src + i), vinv));
    q = _mm512_max_epi32(_mm512_min_epi32(q, hi), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm512_cvtsepi32_epi8(q));
  }
#elif defined(__AVX2__)
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  for (; i + 8 <= n; i += 8) {
    __m256i q =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(src + i), vinv));
    q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(p16, p16));
  }
#endif
  for (; i < n; ++i) {
    const float q = std::nearbyintf(src[i] * inv);
    dst[i] = static_cast<std::int8_t>(
        q < -127.0F ? -127.0F : (q > 127.0F ? 127.0F : q));
  }
}

void decode_i8_row(const std::int8_t* src, float* dst, std::int64_t n,
                   float scale) {
  std::int64_t i = 0;
#if defined(__AVX512F__)
  const __m512 vscale = _mm512_set1_ps(scale);
  for (; i + 16 <= n; i += 16) {
    const __m512i q = _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    _mm512_storeu_ps(dst + i,
                     _mm512_mul_ps(_mm512_cvtepi32_ps(q), vscale));
  }
#elif defined(__AVX2__)
  const __m256 vscale = _mm256_set1_ps(scale);
  for (; i + 8 <= n; i += 8) {
    const __m256i q = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i)));
    _mm256_storeu_ps(dst + i,
                     _mm256_mul_ps(_mm256_cvtepi32_ps(q), vscale));
  }
#endif
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]) * scale;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points

QTensor quantize_rows(const float* src, Shape shape, Dtype dtype) {
  QTensor q;
  q.dtype = dtype;
  q.shape = std::move(shape);
  const std::int64_t n = q.numel();
  PAC_CHECK(n == 0 || src != nullptr, "quantize_rows: null source");
  switch (dtype) {
    case Dtype::kF32: {
      q.data.resize(static_cast<std::size_t>(n) * 4);
      std::memcpy(q.data.data(), src, q.data.size());
      break;
    }
    case Dtype::kF16: {
      q.data.resize(static_cast<std::size_t>(n) * 2);
      encode_f16(src, reinterpret_cast<std::uint16_t*>(q.data.data()), n);
      break;
    }
    case Dtype::kI8: {
      const std::int64_t len = q.row_len();
      const std::int64_t rows = q.rows();
      q.data.resize(static_cast<std::size_t>(n));
      q.scales.resize(static_cast<std::size_t>(rows));
      auto* out = reinterpret_cast<std::int8_t*>(q.data.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        const float* row = src + r * len;
        const float absmax = row_absmax(row, len);
        if (absmax == 0.0F) {
          q.scales[static_cast<std::size_t>(r)] = 0.0F;
          std::memset(out + r * len, 0, static_cast<std::size_t>(len));
          continue;
        }
        q.scales[static_cast<std::size_t>(r)] = absmax / 127.0F;
        encode_i8_row(row, out + r * len, len, 127.0F / absmax);
      }
      break;
    }
  }
  return q;
}

QTensor quantize(const Tensor& t, Dtype dtype) {
  if (!t.defined()) return {};
  return quantize_rows(t.data(), t.shape(), dtype);
}

void dequantize_into(const QTensor& q, float* dst) {
  const std::int64_t n = q.numel();
  if (n == 0) return;
  PAC_CHECK(dst != nullptr, "dequantize_into: null destination");
  switch (q.dtype) {
    case Dtype::kF32: {
      PAC_CHECK(q.data.size() == static_cast<std::size_t>(n) * 4,
                "fp32 qtensor storage does not match its shape");
      std::memcpy(dst, q.data.data(), q.data.size());
      break;
    }
    case Dtype::kF16: {
      PAC_CHECK(q.data.size() == static_cast<std::size_t>(n) * 2,
                "fp16 qtensor storage does not match its shape");
      decode_f16(reinterpret_cast<const std::uint16_t*>(q.data.data()), dst,
                 n);
      break;
    }
    case Dtype::kI8: {
      const std::int64_t len = q.row_len();
      const std::int64_t rows = q.rows();
      PAC_CHECK(q.data.size() == static_cast<std::size_t>(n),
                "int8 qtensor storage does not match its shape");
      PAC_CHECK(q.scales.size() == static_cast<std::size_t>(rows),
                "int8 qtensor needs one scale per row");
      const auto* src = reinterpret_cast<const std::int8_t*>(q.data.data());
      for (std::int64_t r = 0; r < rows; ++r) {
        decode_i8_row(src + r * len, dst + r * len, len,
                      q.scales[static_cast<std::size_t>(r)]);
      }
      break;
    }
  }
}

Tensor dequantize(const QTensor& q) {
  if (!q.defined()) return {};
  Tensor out(q.shape);
  dequantize_into(q, out.data());
  return out;
}

}  // namespace pac::quant
