#include "codec/xor_delta.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace qnn::codec {

// --- scalar reference implementations (the oracle) -------------------------

Bytes xor_with_parent_scalar(ByteSpan data, ByteSpan parent) {
  Bytes out(data.begin(), data.end());
  const std::size_t n = std::min(out.size(), parent.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] ^= parent[i];
  }
  return out;
}

Bytes xor_delta64_scalar(ByteSpan data) {
  Bytes out(data.begin(), data.end());
  const std::size_t words = out.size() / 8;
  // Walk backwards so each word is XORed with the *original* predecessor.
  for (std::size_t i = words; i-- > 1;) {
    std::uint64_t cur, prev;
    std::memcpy(&cur, out.data() + i * 8, 8);
    std::memcpy(&prev, out.data() + (i - 1) * 8, 8);
    cur ^= prev;
    std::memcpy(out.data() + i * 8, &cur, 8);
  }
  return out;
}

Bytes xor_undelta64_scalar(ByteSpan data) {
  Bytes out(data.begin(), data.end());
  const std::size_t words = out.size() / 8;
  // Forward prefix-XOR reconstructs the original stream.
  for (std::size_t i = 1; i < words; ++i) {
    std::uint64_t cur, prev;
    std::memcpy(&cur, out.data() + i * 8, 8);
    std::memcpy(&prev, out.data() + (i - 1) * 8, 8);
    cur ^= prev;
    std::memcpy(out.data() + i * 8, &cur, 8);
  }
  return out;
}

// --- vectorized defaults ---------------------------------------------------

void xor_into(std::span<std::uint8_t> out, ByteSpan data, ByteSpan parent) {
  if (out.size() != data.size()) {
    throw std::invalid_argument("xor_into: out and data sizes differ");
  }
  const std::size_t n = std::min(data.size(), parent.size());
  std::uint8_t* o = out.data();
  const std::uint8_t* a = data.data();
  const std::uint8_t* b = parent.data();
  // Every step loads both inputs before it stores, so `out` may be the
  // very buffer `data` or `parent` points at.
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 16 <= n; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + i),
                     _mm_xor_si128(va, vb));
  }
#endif
  for (; i + 8 <= n; i += 8) {
    std::uint64_t va, vb;
    std::memcpy(&va, a + i, 8);
    std::memcpy(&vb, b + i, 8);
    va ^= vb;
    std::memcpy(o + i, &va, 8);
  }
  for (; i < n; ++i) {
    o[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  if (o != a && data.size() > n) {
    std::memmove(o + n, a + n, data.size() - n);  // tail passes through
  }
}

Bytes xor_with_parent(ByteSpan data, ByteSpan parent) {
  Bytes out(data.size());
  xor_into(out, data, parent);
  return out;
}

Bytes xor_delta64(ByteSpan data) {
  Bytes out(data.begin(), data.end());
  const std::size_t words = out.size() / 8;
  if (words < 2) {
    return out;
  }
  // In-place backward walk like the scalar oracle (one buffer of
  // traffic), two words per step: the pair write at j-1..j only needs
  // words j-2..j, none of which has been rewritten yet when walking
  // down from the top.
  std::uint8_t* p = out.data();
  std::size_t j = words - 1;
#if defined(__SSE2__)
  for (; j >= 2; j -= 2) {
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + (j - 1) * 8));
    const __m128i prev =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + (j - 2) * 8));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + (j - 1) * 8),
                     _mm_xor_si128(cur, prev));
  }
#endif
  for (; j >= 1; --j) {
    std::uint64_t cur, prev;
    std::memcpy(&cur, p + j * 8, 8);
    std::memcpy(&prev, p + (j - 1) * 8, 8);
    cur ^= prev;
    std::memcpy(p + j * 8, &cur, 8);
  }
  return out;
}

Bytes xor_undelta64(ByteSpan data) {
  Bytes out(data.begin(), data.end());
  const std::size_t words = out.size() / 8;
  if (words < 2) {
    return out;
  }
  std::size_t i = 0;
#if defined(__SSE2__)
  // Prefix-XOR two words per step: for v = [w0, w1] and the running
  // carry c (= last decoded word), the decoded pair is
  // [w0^c, w1^w0^c] — one in-register shift plus two XORs.
  __m128i carry = _mm_setzero_si128();
  for (; i + 2 <= words; i += 2) {
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(out.data() + i * 8));
    v = _mm_xor_si128(v, _mm_slli_si128(v, 8));
    v = _mm_xor_si128(v, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + i * 8), v);
    carry = _mm_unpackhi_epi64(v, v);
  }
#endif
  if (i == 0) {
    i = 1;  // word 0 passes through unchanged
  }
  for (; i < words; ++i) {
    std::uint64_t cur, prev;
    std::memcpy(&cur, out.data() + i * 8, 8);
    std::memcpy(&prev, out.data() + (i - 1) * 8, 8);
    cur ^= prev;
    std::memcpy(out.data() + i * 8, &cur, 8);
  }
  return out;
}

}  // namespace qnn::codec
