// Unit + property tests for qnn::codec — RLE, LZ, XOR deltas, registry.
#include <gtest/gtest.h>

#include <cstring>

#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "util/varint.hpp"
#include "util/rng.hpp"

namespace qnn::codec {
namespace {

using util::Bytes;
using util::ByteSpan;

// ---------- payload generators modelling real checkpoint sections ----------

Bytes zeros(std::size_t n) { return Bytes(n, 0); }

Bytes incompressible(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng());
  }
  return out;
}

Bytes runs(std::size_t n) {
  Bytes out;
  std::uint8_t v = 0;
  while (out.size() < n) {
    const std::size_t len =
        std::min<std::size_t>(1 + (v % 200), n - out.size());
    out.insert(out.end(), len, v);
    v = static_cast<std::uint8_t>(v * 31 + 7);
  }
  return out;
}

Bytes repeated_text(std::size_t n) {
  const std::string phrase = "hybrid quantum-classical training state ";
  Bytes out;
  while (out.size() < n) {
    const std::size_t take = std::min(phrase.size(), n - out.size());
    out.insert(out.end(), phrase.begin(), phrase.begin() + take);
  }
  return out;
}

/// Slowly varying doubles (what Adam moments look like).
Bytes similar_doubles(std::size_t n_doubles, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out;
  double v = 1.0;
  for (std::size_t i = 0; i < n_doubles; ++i) {
    v += rng.normal() * 1e-9;
    util::put_le<double>(out, v);
  }
  return out;
}

struct PayloadCase {
  std::string name;
  Bytes data;
};

std::vector<PayloadCase> payload_cases() {
  return {
      {"empty", {}},
      {"one_byte", {0x42}},
      {"three_bytes", {1, 2, 3}},
      {"zeros_small", zeros(17)},
      {"zeros_large", zeros(100000)},
      {"runs", runs(5000)},
      {"text", repeated_text(4096)},
      {"random_small", incompressible(255, 1)},
      {"random_large", incompressible(1 << 17, 2)},
      {"similar_doubles", similar_doubles(4096, 3)},
      {"alternating", [] {
         Bytes b;
         for (int i = 0; i < 1000; ++i) {
           b.push_back(i % 2 ? 0xFF : 0x00);
         }
         return b;
       }()},
  };
}

// ---------- parameterised round-trip property over codecs x payloads -------

using CodecPayload = std::tuple<CodecId, int>;

class CodecRoundTrip : public ::testing::TestWithParam<CodecPayload> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  const Bytes decoded = decode(id, encoded, pc.data.size());
  EXPECT_EQ(decoded, pc.data) << codec_name(id) << " on " << pc.name;
}

TEST_P(CodecRoundTrip, WorstCaseExpansionBounded) {
  const auto [id, payload_idx] = GetParam();
  const PayloadCase pc = payload_cases()[static_cast<std::size_t>(payload_idx)];
  const Bytes encoded = encode(id, pc.data);
  EXPECT_LE(encoded.size(), pc.data.size() + pc.data.size() / 128 + 16)
      << codec_name(id) << " on " << pc.name;
}

std::string codec_payload_name(
    const ::testing::TestParamInfo<CodecPayload>& info) {
  const CodecId id = std::get<0>(info.param);
  const int payload_idx = std::get<1>(info.param);
  std::string name =
      codec_name(id) + "_" +
      payload_cases()[static_cast<std::size_t>(payload_idx)].name;
  for (char& c : name) {
    if (c == '+') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPayloads, CodecRoundTrip,
    ::testing::Combine(::testing::ValuesIn(std::vector<CodecId>(
                           std::begin(kAllCodecs), std::end(kAllCodecs))),
                       ::testing::Range(0, 11)),
    codec_payload_name);

// ---------- compression effectiveness (the T2 claim shapes) ----------

TEST(CodecEffectiveness, RleCollapsesZeroRuns) {
  const Bytes data = zeros(100000);
  // Max run length is 131, so the floor is ~2 bytes per 131 zeros.
  EXPECT_LT(encode(CodecId::kRle, data).size(), data.size() / 50);
}

TEST(CodecEffectiveness, LzCollapsesRepeatedText) {
  const Bytes data = repeated_text(8192);
  EXPECT_LT(encode(CodecId::kLz, data).size(), data.size() / 10);
}

TEST(CodecEffectiveness, DeltaHelpsSimilarDoubles) {
  const Bytes data = similar_doubles(8192, 9);
  const std::size_t plain = encode(CodecId::kLz, data).size();
  const std::size_t delta = encode(CodecId::kDeltaLz, data).size();
  EXPECT_LT(delta, plain);
}

TEST(CodecEffectiveness, RandomDataDoesNotBlowUp) {
  const Bytes data = incompressible(1 << 16, 11);
  for (CodecId id : kAllCodecs) {
    EXPECT_LE(encode(id, data).size(), data.size() + data.size() / 128 + 16)
        << codec_name(id);
  }
}

// ---------- RLE specifics ----------

TEST(Rle, EncodesLongRunCompactly) {
  const Bytes data(131, 0x7);  // exactly max run length
  const Bytes enc = rle_encode(data);
  EXPECT_EQ(enc.size(), 2u);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, ShortRunsStayLiteral) {
  const Bytes data{1, 1, 1, 2, 2, 2};  // runs of 3 < kMinRun
  const Bytes enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc, data.size()), data);
}

TEST(Rle, DecodeRejectsTruncatedLiteral) {
  Bytes enc{0x05, 1, 2};  // literal run of 6, only 2 present
  EXPECT_THROW(rle_decode(enc, 6), std::runtime_error);
}

TEST(Rle, DecodeRejectsTruncatedRepeat) {
  Bytes enc{0x80};  // repeat token without the byte
  EXPECT_THROW(rle_decode(enc, 4), std::runtime_error);
}

TEST(Rle, DecodeRejectsLengthMismatch) {
  const Bytes data(50, 9);
  const Bytes enc = rle_encode(data);
  EXPECT_THROW(rle_decode(enc, 49), std::runtime_error);
  EXPECT_THROW(rle_decode(enc, 51), std::runtime_error);
}

// ---------- LZ specifics ----------

TEST(Lz, OverlappingMatchExtendsRuns) {
  // "abcabcabc..." triggers dist < len copies.
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
  }
  const Bytes enc = lz_encode(data);
  EXPECT_LT(enc.size(), 64u);
  EXPECT_EQ(lz_decode(enc, data.size()), data);
}

TEST(Lz, DecodeRejectsBadDistance) {
  Bytes enc;
  util::put_varint(enc, 1);  // 1 literal
  enc.push_back('x');
  util::put_varint(enc, 1);   // match len 4
  util::put_varint(enc, 99);  // distance beyond output
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);
}

TEST(Lz, DecodeRejectsZeroDistance) {
  Bytes enc;
  util::put_varint(enc, 1);
  enc.push_back('x');
  util::put_varint(enc, 1);
  util::put_varint(enc, 0);
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);
}

TEST(Lz, DecodeRejectsTruncatedLiterals) {
  Bytes enc;
  util::put_varint(enc, 10);
  enc.push_back('x');  // 9 missing
  EXPECT_THROW(lz_decode(enc, 10), std::runtime_error);
}

TEST(Lz, DecodeRejectsOverlongOutput) {
  const Bytes data = repeated_text(256);
  const Bytes enc = lz_encode(data);
  EXPECT_THROW(lz_decode(enc, 100), std::runtime_error);
}

TEST(Lz, DecodeRejectsOverlongMatchBeforeCopying) {
  // A 2^40-byte match against a 5-byte output: the length must be
  // rejected before the copy loop runs, not after it has allocated.
  Bytes enc;
  util::put_varint(enc, 1);
  enc.push_back('x');
  util::put_varint(enc, std::uint64_t{1} << 40);
  util::put_varint(enc, 1);
  EXPECT_THROW(lz_decode(enc, 5), std::runtime_error);

  // The same bound holds for a literal run longer than the output.
  Bytes lits;
  util::put_varint(lits, 8);
  lits.insert(lits.end(), 8, 'y');
  util::put_varint(lits, 0);
  EXPECT_THROW(lz_decode(lits, 5), std::runtime_error);
}

TEST(Lz, WindowBoundaryRoundTrip) {
  // Repetition spaced near the 64 KiB window edge.
  Bytes data = incompressible(1 << 16, 20);
  const Bytes prefix(data.begin(), data.begin() + 512);
  data.insert(data.end(), prefix.begin(), prefix.end());
  const Bytes enc = lz_encode(data);
  EXPECT_EQ(lz_decode(enc, data.size()), data);
}

// ---------- XOR delta ----------

TEST(XorDelta, WithParentIsInvolution) {
  const Bytes a = incompressible(1000, 30);
  const Bytes b = incompressible(1000, 31);
  const Bytes delta = xor_with_parent(a, b);
  EXPECT_EQ(xor_with_parent(delta, b), a);
}

TEST(XorDelta, IdenticalPayloadsDeltaToZeros) {
  const Bytes a = incompressible(512, 32);
  const Bytes delta = xor_with_parent(a, a);
  EXPECT_EQ(delta, zeros(512));
}

TEST(XorDelta, ChildLongerThanParentTailPassesThrough) {
  const Bytes child = incompressible(100, 33);
  const Bytes parent = incompressible(60, 34);
  const Bytes delta = xor_with_parent(child, parent);
  for (std::size_t i = 60; i < 100; ++i) {
    ASSERT_EQ(delta[i], child[i]);
  }
  EXPECT_EQ(xor_with_parent(delta, parent), child);
}

TEST(XorDelta, Intra64RoundTrip) {
  for (std::size_t n : {0ul, 1ul, 7ul, 8ul, 9ul, 16ul, 123ul, 4096ul}) {
    const Bytes data = incompressible(n, 35 + n);
    EXPECT_EQ(xor_undelta64(xor_delta64(data)), data) << "n=" << n;
  }
}

TEST(XorDelta, Intra64LeavesTailUntouched) {
  const Bytes data = incompressible(19, 36);  // 2 words + 3 tail bytes
  const Bytes delta = xor_delta64(data);
  for (std::size_t i = 16; i < 19; ++i) {
    ASSERT_EQ(delta[i], data[i]);
  }
}

// ---------- randomized roundtrips ----------

/// Every codec must round-trip arbitrary random-sized inputs at both ends
/// of the entropy spectrum: incompressible noise (statevector-like) and
/// highly repetitive bytes (delta'd-optimizer-like).
TEST(RandomizedRoundTrip, IncompressibleInputsAllCodecs) {
  util::Rng rng(20250726);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 5000);
    const Bytes data = incompressible(n, rng());
    for (CodecId id : kAllCodecs) {
      const Bytes enc = encode(id, data);
      EXPECT_EQ(decode(id, enc, data.size()), data)
          << codec_name(id) << " n=" << n << " trial=" << trial;
      // Bounded worst-case expansion (codec.hpp contract).
      EXPECT_LE(enc.size(), data.size() + data.size() / 128 + 16)
          << codec_name(id) << " n=" << n;
    }
  }
}

TEST(RandomizedRoundTrip, RepetitiveInputsAllCodecs) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 5000);
    // Random run structure: a few distinct byte values in random-length
    // runs, the shape RLE/LZ are meant to collapse.
    Bytes data;
    while (data.size() < n) {
      const auto value = static_cast<std::uint8_t>(rng() % 4);
      const std::size_t len =
          std::min<std::size_t>(1 + rng() % 300, n - data.size());
      data.insert(data.end(), len, value);
    }
    for (CodecId id : kAllCodecs) {
      const Bytes enc = encode(id, data);
      EXPECT_EQ(decode(id, enc, data.size()), data)
          << codec_name(id) << " n=" << n << " trial=" << trial;
    }
  }
}

// ---------- vectorized kernels vs scalar oracles ----------
//
// The default entry points (SSE2-assisted on x86-64) must emit EXACTLY
// the bytes the scalar reference loops emit — for RLE that means the
// identical token stream, not just a stream that decodes back.

TEST(SimdParity, XorKernelsMatchScalarOnAllPayloads) {
  for (const PayloadCase& pc : payload_cases()) {
    EXPECT_EQ(xor_delta64(pc.data), xor_delta64_scalar(pc.data)) << pc.name;
    EXPECT_EQ(xor_undelta64(pc.data), xor_undelta64_scalar(pc.data))
        << pc.name;
  }
}

TEST(SimdParity, RleTokenStreamMatchesScalarOnAllPayloads) {
  for (const PayloadCase& pc : payload_cases()) {
    EXPECT_EQ(rle_encode(pc.data), rle_encode_scalar(pc.data)) << pc.name;
  }
}

TEST(SimdParity, FuzzAcrossLengthsAndContent) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng.uniform_u64(4200);
    Bytes data(n);
    // Mixed regime: runs of a repeated byte interleaved with noise, the
    // content most likely to hit the RLE scan's block/tail boundaries.
    std::size_t i = 0;
    while (i < n) {
      const auto b = static_cast<std::uint8_t>(rng());
      std::size_t len = 1 + rng.uniform_u64(20);
      const bool noisy = (rng() & 1) != 0;
      while (len-- > 0 && i < n) {
        data[i++] = noisy ? static_cast<std::uint8_t>(rng()) : b;
      }
    }
    ASSERT_EQ(rle_encode(data), rle_encode_scalar(data)) << "trial " << trial;
    ASSERT_EQ(xor_delta64(data), xor_delta64_scalar(data)) << "trial "
                                                           << trial;
    ASSERT_EQ(xor_undelta64(data), xor_undelta64_scalar(data))
        << "trial " << trial;
    ASSERT_EQ(xor_undelta64(xor_delta64(data)), data) << "trial " << trial;
  }
}

TEST(SimdParity, XorWithParentMatchesScalarOnMismatchedLengths) {
  util::Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    const Bytes data = incompressible(rng.uniform_u64(600), 10 + trial);
    const Bytes parent = incompressible(rng.uniform_u64(600), 900 + trial);
    ASSERT_EQ(xor_with_parent(data, parent),
              xor_with_parent_scalar(data, parent))
        << "trial " << trial;
  }
}

TEST(XorDelta, IntoMayAliasDataOrParent) {
  // Odd length: exercises the 16-byte, 8-byte and byte tails.
  const Bytes data = incompressible(1003, 40);
  const Bytes parent = incompressible(1003, 41);
  const Bytes expect = xor_with_parent_scalar(data, parent);

  Bytes into_data = data;
  xor_into(into_data, into_data, parent);
  EXPECT_EQ(into_data, expect);

  Bytes into_parent = parent;
  xor_into(into_parent, data, into_parent);
  EXPECT_EQ(into_parent, expect);

  // A shorter parent: the tail of `data` passes through.
  const Bytes short_parent(parent.begin(), parent.begin() + 37);
  Bytes separate(data.size(), 0);
  xor_into(separate, data, short_parent);
  EXPECT_EQ(separate, xor_with_parent_scalar(data, short_parent));

  Bytes wrong_size(data.size() - 1);
  EXPECT_THROW(xor_into(wrong_size, data, parent), std::invalid_argument);
}

// ---------- registry ----------

TEST(Registry, NamesRoundTrip) {
  for (CodecId id : kAllCodecs) {
    EXPECT_EQ(codec_from_name(codec_name(id)), id);
  }
  EXPECT_THROW(codec_from_name("bogus"), std::invalid_argument);
}

TEST(Registry, RawLengthMismatchThrows) {
  const Bytes data{1, 2, 3};
  EXPECT_THROW(decode(CodecId::kRaw, data, 4), std::runtime_error);
}

TEST(Registry, DecodeIsDeterministic) {
  const Bytes data = similar_doubles(1024, 40);
  for (CodecId id : kAllCodecs) {
    EXPECT_EQ(encode(id, data), encode(id, data)) << codec_name(id);
  }
}

}  // namespace
}  // namespace qnn::codec
