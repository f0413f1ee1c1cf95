// LZ77 with a greedy hash-chain matcher (LZ4-flavoured token layout).
//
// Token stream, repeated until end of input:
//   varint literal_count
//   literal_count raw bytes
//   varint match_code:
//     0            -> end of stream (no match follows)
//     m >= 1       -> match of length m + kMinMatch - 1
//   varint distance (only when match_code != 0), 1-based back-reference
//
// Matches are found via a 4-byte-hash head table with single-step chains
// (head[hash] stores the most recent position), window-limited to kWindow.
// Worst case (incompressible input): the whole input is one literal run,
// expansion bound of n + O(varint overhead).
#include <cstring>
#include <stdexcept>
#include <vector>

#include "codec/codec.hpp"
#include "util/varint.hpp"

namespace qnn::codec {

namespace {
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1 << 16;
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kHashBits = 16;

inline std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Longest common prefix of [a, limit) and [b, limit-relative), capped.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         const std::uint8_t* limit) {
  std::size_t n = 0;
  while (a + n < limit && a[n] == b[n] && n < kMaxMatch) {
    ++n;
  }
  return n;
}
}  // namespace

Bytes lz_encode(ByteSpan raw) {
  Bytes out;
  out.reserve(raw.size() / 2 + 16);
  if (raw.empty()) {
    return out;
  }

  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  const std::uint8_t* base = raw.data();
  const std::uint8_t* limit = base + raw.size();

  std::size_t lit_start = 0;
  std::size_t i = 0;
  while (i + kMinMatch <= raw.size()) {
    const std::uint32_t h = hash4(base + i);
    const std::int64_t cand = head[h];
    head[h] = static_cast<std::int64_t>(i);

    std::size_t len = 0;
    if (cand >= 0 && i - static_cast<std::size_t>(cand) <= kWindow) {
      len = match_length(base + i, base + cand, limit);
    }
    if (len >= kMinMatch) {
      // Emit pending literals, then the match token.
      util::put_varint(out, i - lit_start);
      out.insert(out.end(),
                 raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
                 raw.begin() + static_cast<std::ptrdiff_t>(i));
      util::put_varint(out, len - kMinMatch + 1);
      util::put_varint(out, i - static_cast<std::size_t>(cand));

      // Insert hash entries inside the match so later matches can land
      // there too (sparse stride keeps encoding fast).
      const std::size_t end = i + len;
      for (std::size_t j = i + 1; j + kMinMatch <= raw.size() && j < end;
           j += 2) {
        head[hash4(base + j)] = static_cast<std::int64_t>(j);
      }
      i = end;
      lit_start = i;
    } else {
      ++i;
    }
  }

  // Trailing literals + end marker.
  util::put_varint(out, raw.size() - lit_start);
  out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(lit_start),
             raw.end());
  util::put_varint(out, 0);
  return out;
}

Bytes lz_decode(ByteSpan encoded, std::size_t raw_len) {
  Bytes out;
  out.reserve(raw_len);
  if (encoded.empty()) {
    if (raw_len != 0) {
      throw std::runtime_error("lz_decode: empty stream for non-empty output");
    }
    return out;
  }

  std::size_t pos = 0;
  while (true) {
    const std::uint64_t lits = util::get_varint(encoded, pos);
    if (lits > encoded.size() - pos) {
      throw std::runtime_error("lz_decode: truncated literals");
    }
    // Every length is checked against the room left in the declared
    // output before anything is copied, so a forged length can neither
    // allocate nor spin past raw_len.
    if (lits > raw_len - out.size()) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    out.insert(out.end(), encoded.begin() + static_cast<std::ptrdiff_t>(pos),
               encoded.begin() + static_cast<std::ptrdiff_t>(pos + lits));
    pos += lits;

    const std::uint64_t match_code = util::get_varint(encoded, pos);
    if (match_code == 0) {
      break;
    }
    const std::uint64_t room = raw_len - out.size();
    if (match_code > room || match_code + kMinMatch - 1 > room) {
      throw std::runtime_error("lz_decode: output exceeds declared length");
    }
    const std::uint64_t len = match_code + kMinMatch - 1;
    const std::uint64_t dist = util::get_varint(encoded, pos);
    if (dist == 0 || dist > out.size()) {
      throw std::runtime_error("lz_decode: bad match distance");
    }
    // Byte-by-byte copy: overlapping matches (dist < len) are legal and
    // reproduce the run-extension semantics of the encoder.
    std::size_t src = out.size() - dist;
    for (std::uint64_t k = 0; k < len; ++k) {
      out.push_back(out[src + k]);
    }
  }
  if (out.size() != raw_len) {
    throw std::runtime_error("lz_decode: output length mismatch");
  }
  return out;
}

}  // namespace qnn::codec
