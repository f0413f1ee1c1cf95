// WAL-style delta journal between full checkpoint installs.
//
// Whole-container installs bound the lost work after a crash by the
// checkpoint interval; the journal shrinks that term to *replay time*.
// After every install the Checkpointer opens `wal-<epoch>.qwal` (epoch =
// the installed checkpoint's id) and appends one framed record per
// training step; recovery loads the newest resolvable checkpoint and
// redo-replays its journal up to the last record whose frame CRC
// validates, truncating torn tails.
//
// On-disk layout (all integers little-endian):
//
//   header   "QWAL" u16 version  u64 epoch  u64 base_step  u32 crc32c
//            (crc over the preceding 22 bytes)
//   record*  u64 payload_len  u32 crc32c(le64(payload_len) || payload)
//            payload
//
// A record's payload is `u64 step, u32 n_sections, { u16 kind, u8 flags,
// u64 len, bytes }*` — the step's state as raw section payloads, each
// XOR-delta'd (kSectionFlagDelta) against the previous record's resolved
// payload when the sizes match, raw otherwise. The first record deltas
// against the epoch's installed state.
//
// Crash model: the log is written on the streamed kPlain append path —
// one append per record — so a crash tears the file at an append/byte
// boundary and the torn frame fails its CRC (or underruns). Group
// commit: the writer syncs the handle every `group_commit_steps`
// records; records between sync points ride the device's write cache.
// Replay is read-only and a pure function of (base checkpoint, valid
// frame prefix), so replaying the same journal twice — e.g. a crash
// during recovery followed by a second recovery — yields a
// digest-identical state.
//
// What is and is not guaranteed between full installs:
//   * a fully-framed record is recovered iff its bytes were durable —
//     records since the last sync point may be lost with the write cache;
//   * torn tails are detected (length underrun or CRC mismatch) and
//     ignored, never applied partially;
//   * the journal never outlives its base: stores reap logs whose epoch
//     the manifest no longer advertises, and the active log is pinned.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/format.hpp"
#include "io/env.hpp"
#include "qnn/training_state.hpp"

namespace qnn::ckpt {

struct WalPolicy {
  bool enable = false;
  /// Group commit: sync the log handle every this many records
  /// (0 or 1 = sync every record).
  std::uint64_t group_commit_steps = 8;
  /// Compaction budget: once the active log exceeds this many bytes the
  /// Checkpointer folds it into a normal install and rotates. 0 = never
  /// compact on size.
  std::uint64_t max_log_bytes = std::uint64_t{4} << 20;
};

/// Canonical journal file name for an epoch: "wal-0000000042.qwal".
std::string wal_file_name(std::uint64_t epoch);

/// Parses an epoch back out of a journal file name; nullopt when the
/// name does not match the canonical pattern.
std::optional<std::uint64_t> parse_wal_file_name(const std::string& name);

/// Frame-level scan summary of one journal (no state reconstruction).
struct WalScan {
  std::uint64_t epoch = 0;
  std::uint64_t base_step = 0;
  std::uint64_t records = 0;      ///< fully-framed records
  std::uint64_t last_step = 0;    ///< step of the last valid record
  std::uint64_t valid_bytes = 0;  ///< header + valid frames
  std::uint64_t torn_bytes = 0;   ///< ignored tail past the last valid frame
};

/// Frame-validates `dir`/wal-<epoch>.qwal. nullopt when the file is
/// missing or its header is unusable (torn, wrong magic/version, or an
/// epoch that does not match the file name — a stale log must never
/// masquerade as the active one).
std::optional<WalScan> scan_wal(io::Env& env, const std::string& dir,
                                std::uint64_t epoch);

/// Result of folding a journal into a base checkpoint's sections.
struct WalReplay {
  std::uint64_t records_applied = 0;
  std::uint64_t step = 0;  ///< step of the last applied record
  std::uint64_t torn_bytes = 0;
};

/// Redo-only replay: folds every fully-framed record of
/// `dir`/wal-<epoch>.qwal into `sections` (the base checkpoint's
/// resolved raw payloads keyed by kind), stopping at the first torn or
/// CRC-invalid frame. Records are applied in place and atomically: each
/// record is checked whole first, and one that parses but cannot apply
/// (a delta with no equal-sized base, or a kind named twice) stops the
/// replay without touching `sections`. Returns nullopt — with `sections`
/// untouched — when there is no usable journal or it holds zero valid
/// records.
std::optional<WalReplay> replay_wal(io::Env& env, const std::string& dir,
                                    std::uint64_t epoch,
                                    std::map<SectionKind, Bytes>& sections);

/// Append-side of the journal: opened by the Checkpointer right after an
/// install, closed (and superseded) by the next rotation.
class WalWriter {
 public:
  /// Creates (truncating any stale same-name log) `dir`/wal-<epoch>.qwal
  /// and writes the header. `base` is the freshly-installed state the
  /// first record deltas against.
  WalWriter(io::Env& env, const std::string& dir, std::uint64_t epoch,
            WalPolicy policy, const qnn::TrainingState& base,
            bool include_simulator);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record for `state` (one plain-stream append =
  /// one crash-atomic frame), group-committing per policy.
  void log_step(const qnn::TrainingState& state);

  /// Explicit group-commit point (idempotent when nothing is pending).
  void sync();

  /// Final sync + handle close. Further log_step calls are invalid.
  void close();

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] std::uint64_t bytes_logged() const { return bytes_; }
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  [[nodiscard]] bool over_budget() const {
    return policy_.max_log_bytes > 0 && bytes_ > policy_.max_log_bytes;
  }

 private:
  io::Env& env_;
  const std::uint64_t epoch_;
  const WalPolicy policy_;
  const bool include_simulator_;
  std::unique_ptr<io::WritableFile> out_;
  /// Previous record's resolved raw payloads (XOR-delta bases).
  std::map<SectionKind, Bytes> last_raw_;
  /// Frame buffer reused across records: log_step frames each record
  /// here in one pass, so its capacity is bounded by the largest record.
  Bytes frame_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t unsynced_ = 0;
};

}  // namespace qnn::ckpt
