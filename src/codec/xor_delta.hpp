// XOR-delta transforms.
//
// inter-buffer: xor_into() / xor_with_parent() XOR a payload against the
// same section of the parent checkpoint; for slowly-moving optimiser state
// the result is mostly zero bytes, which Rle/Lz collapse. Applied by the
// Incremental checkpoint strategy before compression, and by the delta
// journal (ckpt/wal) when it frames and replays records in place.
//
// intra-buffer: xor_delta64 XORs each 64-bit word with its predecessor
// inside a single payload; exposes repeated structure in arrays of similar
// doubles. Used by the kDeltaLz / kDeltaRle codecs.
//
// Both transforms are involutions-with-inverse and exactly size-preserving.
//
// The default entry points run SSE2 kernels on x86-64 (16 bytes per
// step; the prefix-XOR in xor_undelta64 carries the running word across
// lanes) and wide-word loops elsewhere. The `_scalar` variants are the
// original byte/word loops, kept as the oracle the parity tests compare
// against — outputs are byte-identical by contract.
#pragma once

#include "util/bytes.hpp"

namespace qnn::codec {

using util::Bytes;
using util::ByteSpan;

/// Destination-writing XOR kernel: out[i] = data[i] ^ parent[i] for
/// i < min(data, parent) sizes; bytes of `data` past parent's length
/// pass through unchanged (payload grew between checkpoints).
/// `out.size()` must equal `data.size()` (std::invalid_argument
/// otherwise). Aliasing: `out` may be the same buffer as `data` or as
/// `parent` (same start address) — each 16-byte step loads both inputs
/// before it stores — so `xor_into(buf, delta, buf)` applies a delta in
/// place. Any other overlap is undefined.
void xor_into(std::span<std::uint8_t> out, ByteSpan data, ByteSpan parent);

/// data[i] ^ parent[i] into a fresh buffer; thin wrapper over xor_into.
/// Result size == data size.
Bytes xor_with_parent(ByteSpan data, ByteSpan parent);

/// Forward intra-buffer delta: word[i] ^= word[i-1] (64-bit words; the tail
/// that does not fill a word is left untouched).
Bytes xor_delta64(ByteSpan data);

/// Inverse of xor_delta64.
Bytes xor_undelta64(ByteSpan data);

/// Scalar reference implementations (the pre-vectorization loops).
/// Byte-identical to the defaults; used by parity tests and the
/// throughput bench.
Bytes xor_with_parent_scalar(ByteSpan data, ByteSpan parent);
Bytes xor_delta64_scalar(ByteSpan data);
Bytes xor_undelta64_scalar(ByteSpan data);

}  // namespace qnn::codec
