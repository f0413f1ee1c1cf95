// Tests for the WAL-style delta journal (ckpt/wal.hpp): file naming,
// frame round trips, pinned journal bytes, torn-tail truncation at every
// byte, whole-record atomicity of in-place replay, group commit,
// idempotent redo-only replay, Checkpointer integration (logging,
// budget-driven compaction, rotation), and stale-log reaping.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/store.hpp"
#include "ckpt/wal.hpp"
#include "codec/xor_delta.hpp"
#include "io/mem_env.hpp"
#include "qnn/ansatz.hpp"
#include "util/crc.hpp"
#include "util/strings.hpp"

namespace qnn::ckpt {
namespace {

// ---------- helpers: a real training state ----------

qnn::TrainingState make_state(std::uint64_t step, std::uint64_t seed = 7) {
  qnn::TrainingState s;
  s.step = step;
  util::Rng rng(seed + step);
  s.params.resize(24);
  for (double& p : s.params) {
    p = rng.uniform(-3.0, 3.0);
  }
  s.optimizer_name = "adam";
  s.optimizer_state.resize(400);
  for (auto& b : s.optimizer_state) {
    b = static_cast<std::uint8_t>(rng());
  }
  s.rng_state = rng.serialize();
  s.loss_history.resize(step, 0.5);
  s.epoch = step / 10;
  s.cursor = step % 10;
  s.permutation = {0, 1, 2, 3};
  s.workload_tag = "vqe";
  return s;
}

/// The base checkpoint's resolved raw payloads, as recovery hands them
/// to replay_wal.
std::map<SectionKind, Bytes> raw_sections(const qnn::TrainingState& state,
                                          bool include_simulator = false) {
  std::map<SectionKind, Bytes> out;
  for (Section& s : state_to_sections(state, include_simulator,
                                      codec::CodecId::kRaw)) {
    out[s.kind] = std::move(s.payload);
  }
  return out;
}

qnn::TrainingState state_of(const std::map<SectionKind, Bytes>& sections) {
  std::vector<Section> resolved;
  for (const auto& [kind, payload] : sections) {
    Section s;
    s.kind = kind;
    s.payload = payload;
    resolved.push_back(std::move(s));
  }
  return sections_to_state(resolved);
}

std::vector<std::string> wal_files(io::Env& env, const std::string& dir) {
  std::vector<std::string> out;
  for (const std::string& name : env.list_dir(dir)) {
    if (parse_wal_file_name(name)) {
      out.push_back(name);
    }
  }
  return out;
}

// ---------- file naming ----------

TEST(WalFile, NameRoundTrip) {
  EXPECT_EQ(wal_file_name(42), "wal-0000000042.qwal");
  EXPECT_EQ(parse_wal_file_name("wal-0000000042.qwal").value(), 42u);
  EXPECT_FALSE(parse_wal_file_name("wal-42.qwal").has_value());
  EXPECT_FALSE(parse_wal_file_name("wal-00000000xx.qwal").has_value());
  EXPECT_FALSE(parse_wal_file_name("ckpt-0000000042.qckp").has_value());
  EXPECT_FALSE(parse_wal_file_name("wal-0000000042.qckp").has_value());
}

// ---------- writer / scan / replay round trip ----------

TEST(Wal, WriteScanReplayRoundTrip) {
  io::MemEnv env;
  const auto base = make_state(10);
  WalWriter w(env, "cp", 1, WalPolicy{.enable = true}, base,
              /*include_simulator=*/false);
  for (std::uint64_t step = 11; step <= 13; ++step) {
    w.log_step(make_state(step));
  }
  w.close();

  const auto scan = scan_wal(env, "cp", 1);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->epoch, 1u);
  EXPECT_EQ(scan->base_step, 10u);
  EXPECT_EQ(scan->records, 3u);
  EXPECT_EQ(scan->last_step, 13u);
  EXPECT_EQ(scan->torn_bytes, 0u);

  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 1, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 3u);
  EXPECT_EQ(replay->step, 13u);
  EXPECT_EQ(replay->torn_bytes, 0u);
  EXPECT_EQ(state_of(sections), make_state(13));
}

TEST(Wal, ScanRejectsMissingTornOrMislabeledHeaders) {
  io::MemEnv env;
  EXPECT_FALSE(scan_wal(env, "cp", 1).has_value());  // missing

  const auto base = make_state(5);
  WalWriter w(env, "cp", 1, WalPolicy{}, base, false);
  w.log_step(make_state(6));
  w.close();

  // A log whose header claims a different epoch than its file name must
  // never masquerade as that epoch's journal.
  const auto data = env.read_file("cp/" + wal_file_name(1));
  ASSERT_TRUE(data.has_value());
  env.write_file_atomic("cp/" + wal_file_name(2), util::ByteSpan{*data});
  EXPECT_FALSE(scan_wal(env, "cp", 2).has_value());

  // A header torn mid-way is unusable.
  ASSERT_TRUE(env.truncate("cp/" + wal_file_name(1), 10));
  EXPECT_FALSE(scan_wal(env, "cp", 1).has_value());
}

// ---------- golden journal bytes ----------
//
// A 3-record journal, pinned byte for byte. Its records cover XOR-delta
// sections (meta, params, optimizer, rng and cursor keep their sizes)
// and a raw section whose size changes every step (the growing loss
// history). A writer change that shifts one byte of the on-disk journal
// fails here; journals already on disk must keep replaying, so the hex
// changes only with an intentional format change (and kWalVersion).

qnn::TrainingState tiny_state(std::uint64_t step) {
  qnn::TrainingState s;
  s.step = step;
  s.params = {0.25 * static_cast<double>(step), -1.5};
  s.optimizer_name = "sgd";
  s.optimizer_state = {1, 2, static_cast<std::uint8_t>(step), 4};
  s.rng_state = {9, 8, 7, static_cast<std::uint8_t>(step)};
  s.loss_history.assign(step, 0.5);
  s.epoch = step / 4;
  s.cursor = step % 4;
  s.permutation = {1, 0};
  s.workload_tag = "t";
  return s;
}

/// wal-0000000005.qwal: base step 2, records for steps 3, 4 and 5.
const std::string kGoldenJournalHex =
    "5157414c0100050000000000000002000000000000002e3a18c7d60000000000"
    "00006f99a6d10300000000000000060000000000013800000000000000000000"
    "0000000000000000000000000000000000000000000100000000000000000000"
    "0000000000010000000000000000000000000000000100011800000000000000"
    "0000000000000000000000000000080000000000000000000200010400000000"
    "0000000000010003000104000000000000000000000104000110000000000000"
    "0000000000000000000000000000000000050000200000000000000003000000"
    "00000000000000000000e03f000000000000e03f000000000000e03fde000000"
    "000000009885db39040000000000000006000000000001380000000000000000"
    "0000000000000000000000000000000000000000000000070000000000000001"
    "0000000000000003000000000000000000000000000000010001180000000000"
    "0000000000000000000000000000000018000000000000000000020001040000"
    "0000000000000007000300010400000000000000000000070400011000000000"
    "0000000000000000000000000000000000000005000028000000000000000400"
    "000000000000000000000000e03f000000000000e03f000000000000e03f0000"
    "00000000e03fe600000000000000bcda19b10500000000000000060000000000"
    "0138000000000000000000000000000000000000000000000000000000000000"
    "0001000000000000000000000000000000010000000000000000000000000000"
    "0001000118000000000000000000000000000000000000000000040000000000"
    "0000000002000104000000000000000000010003000104000000000000000000"
    "0001040001100000000000000000000000000000000000000000000000050000"
    "30000000000000000500000000000000000000000000e03f000000000000e03f"
    "000000000000e03f000000000000e03f000000000000e03f";

TEST(WalGolden, WriterEmitsPinnedBytes) {
  io::MemEnv env;
  WalWriter w(env, "cp", 5, WalPolicy{}, tiny_state(2), false);
  for (std::uint64_t step = 3; step <= 5; ++step) {
    w.log_step(tiny_state(step));
  }
  w.close();
  const auto data = env.read_file("cp/" + wal_file_name(5));
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(util::to_hex(*data), kGoldenJournalHex);
}

TEST(WalGolden, PinnedJournalCoversDeltaAndResizedRawSections) {
  // Walk the first record's section headers: the fixture must hold both
  // section shapes the writer emits.
  const Bytes journal = util::from_hex(kGoldenJournalHex);
  std::size_t off = 26 + 12 + 8;  // header, frame prefix, step
  const auto n = util::get_le<std::uint32_t>(journal, off);
  std::map<SectionKind, std::uint8_t> flags;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto kind =
        static_cast<SectionKind>(util::get_le<std::uint16_t>(journal, off));
    flags[kind] = util::get_le<std::uint8_t>(journal, off);
    off += util::get_le<std::uint64_t>(journal, off);
  }
  EXPECT_EQ(flags.at(SectionKind::kParams), kSectionFlagDelta);
  EXPECT_EQ(flags.at(SectionKind::kLossHistory), 0u);
}

TEST(WalGolden, PinnedJournalReplays) {
  io::MemEnv env;
  env.write_file_atomic("cp/" + wal_file_name(5),
                        util::from_hex(kGoldenJournalHex));
  const auto scan = scan_wal(env, "cp", 5);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->base_step, 2u);
  EXPECT_EQ(scan->records, 3u);
  EXPECT_EQ(scan->torn_bytes, 0u);

  auto sections = raw_sections(tiny_state(2));
  const auto replay = replay_wal(env, "cp", 5, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 3u);
  EXPECT_EQ(replay->step, 5u);
  EXPECT_EQ(state_of(sections), tiny_state(5));
}

// ---------- torn tails ----------

TEST(Wal, TruncationAtEveryByteReplaysLongestValidPrefix) {
  io::MemEnv env;
  const auto base = make_state(20);
  // Frame boundaries, captured as the writer grows the log.
  std::vector<std::uint64_t> marks;
  WalWriter w(env, "cp", 3, WalPolicy{}, base, false);
  marks.push_back(w.bytes_logged());  // header
  for (std::uint64_t step = 21; step <= 23; ++step) {
    w.log_step(make_state(step));
    marks.push_back(w.bytes_logged());
  }
  w.close();

  const auto full = env.read_file("cp/" + wal_file_name(3));
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->size(), marks.back());

  for (std::uint64_t len = 0; len <= full->size(); ++len) {
    env.write_file_atomic("cp/" + wal_file_name(3),
                          util::ByteSpan{full->data(), len});
    std::uint64_t expect_records = 0;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      expect_records += marks[i] <= len ? 1 : 0;
    }
    const auto scan = scan_wal(env, "cp", 3);
    if (len < marks.front()) {
      EXPECT_FALSE(scan.has_value()) << "torn header at len " << len;
      continue;
    }
    ASSERT_TRUE(scan.has_value()) << "len " << len;
    EXPECT_EQ(scan->records, expect_records) << "len " << len;
    EXPECT_EQ(scan->valid_bytes, marks[expect_records]) << "len " << len;
    EXPECT_EQ(scan->torn_bytes, len - marks[expect_records]) << "len " << len;

    auto sections = raw_sections(base);
    const auto replay = replay_wal(env, "cp", 3, sections);
    if (expect_records == 0) {
      EXPECT_FALSE(replay.has_value()) << "len " << len;
      EXPECT_EQ(state_of(sections), base) << "len " << len;
    } else {
      ASSERT_TRUE(replay.has_value()) << "len " << len;
      EXPECT_EQ(replay->records_applied, expect_records);
      EXPECT_EQ(state_of(sections), make_state(20 + expect_records))
          << "len " << len;
    }
  }
}

TEST(Wal, CorruptFrameStopsReplayAtLastGoodRecord) {
  io::MemEnv env;
  const auto base = make_state(1);
  std::vector<std::uint64_t> marks;
  WalWriter w(env, "cp", 1, WalPolicy{}, base, false);
  marks.push_back(w.bytes_logged());
  for (std::uint64_t step = 2; step <= 4; ++step) {
    w.log_step(make_state(step));
    marks.push_back(w.bytes_logged());
  }
  w.close();

  // Flip a bit inside the second record's payload: replay keeps record
  // one, ignores everything from the damage on.
  ASSERT_TRUE(env.flip_bit("cp/" + wal_file_name(1), (marks[1] + 20) * 8));
  auto sections = raw_sections(base);
  const auto replay = replay_wal(env, "cp", 1, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(replay->step, 2u);
  EXPECT_EQ(state_of(sections), make_state(2));

  // Damage in the first record leaves nothing to replay; the caller's
  // sections must come back untouched.
  ASSERT_TRUE(env.flip_bit("cp/" + wal_file_name(1), (marks[0] + 20) * 8));
  auto untouched = raw_sections(base);
  EXPECT_FALSE(replay_wal(env, "cp", 1, untouched).has_value());
  EXPECT_EQ(untouched, raw_sections(base));
}

TEST(Wal, InapplicableRecordStopsReplayWithoutPartialApply) {
  io::MemEnv env;
  const auto base = make_state(30);
  WalWriter w(env, "cp", 9, WalPolicy{}, base, false);
  w.log_step(make_state(31));
  w.close();

  // Replay against a base whose params payload has a different size:
  // the record's delta sections no longer apply, and the atomicity rule
  // says no section of it may land.
  auto mismatched = raw_sections(base);
  ASSERT_FALSE(mismatched[SectionKind::kParams].empty());
  mismatched[SectionKind::kParams].resize(
      mismatched[SectionKind::kParams].size() - 8);
  const auto before = mismatched;
  EXPECT_FALSE(replay_wal(env, "cp", 9, mismatched).has_value());
  EXPECT_EQ(mismatched, before);
}

// ---------- hand-framed journals ----------

struct HandSection {
  SectionKind kind;
  bool delta;
  Bytes payload;
};

/// A record payload exactly as the writer lays it out.
Bytes record_payload(std::uint64_t step,
                     const std::vector<HandSection>& sections) {
  Bytes out;
  util::put_le<std::uint64_t>(out, step);
  util::put_le<std::uint32_t>(out,
                              static_cast<std::uint32_t>(sections.size()));
  for (const HandSection& s : sections) {
    util::put_le<std::uint16_t>(out, static_cast<std::uint16_t>(s.kind));
    util::put_le<std::uint8_t>(out, s.delta ? kSectionFlagDelta : 0);
    util::put_bytes(out, s.payload);
  }
  return out;
}

/// A CRC-valid journal: header plus one frame per record payload.
Bytes frame_journal(std::uint64_t epoch, std::uint64_t base_step,
                    const std::vector<Bytes>& payloads) {
  Bytes out = {'Q', 'W', 'A', 'L'};
  util::put_le<std::uint16_t>(out, 1);
  util::put_le<std::uint64_t>(out, epoch);
  util::put_le<std::uint64_t>(out, base_step);
  util::put_le<std::uint32_t>(out, util::crc32c(out));
  for (const Bytes& payload : payloads) {
    Bytes len;
    util::put_le<std::uint64_t>(len, payload.size());
    out.insert(out.end(), len.begin(), len.end());
    util::put_le<std::uint32_t>(out,
                                util::crc32c(payload, util::crc32c(len)));
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

TEST(Wal, PartlyApplicableRecordLeavesStateOfPreviousRecord) {
  io::MemEnv env;
  const auto base = raw_sections(make_state(50));
  const auto after1 = raw_sections(make_state(51));
  const auto next = raw_sections(make_state(52));

  // Record 1 carries all of step 51: deltas where sizes hold, raw
  // otherwise (the loss history grew).
  std::vector<HandSection> rec1;
  for (const auto& [kind, payload] : after1) {
    const bool delta = base.at(kind).size() == payload.size();
    rec1.push_back({kind, delta,
                    delta ? codec::xor_with_parent(payload, base.at(kind))
                          : payload});
  }
  // Record 2: an applicable params delta first, then an optimizer delta
  // one word short of its base. In-place replay must check the whole
  // record before it XORs the params.
  const Bytes& opt = after1.at(SectionKind::kOptimizer);
  const std::vector<HandSection> rec2 = {
      {SectionKind::kParams, true,
       codec::xor_with_parent(next.at(SectionKind::kParams),
                              after1.at(SectionKind::kParams))},
      {SectionKind::kOptimizer, true, Bytes(opt.size() - 8, 0x5a)},
  };
  env.write_file_atomic(
      "cp/" + wal_file_name(4),
      frame_journal(4, 50,
                    {record_payload(51, rec1), record_payload(52, rec2)}));
  // Both frames are well formed: the stop comes from applicability.
  ASSERT_EQ(scan_wal(env, "cp", 4)->records, 2u);

  auto sections = base;
  const auto replay = replay_wal(env, "cp", 4, sections);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(replay->step, 51u);
  EXPECT_EQ(sections, after1);
}

TEST(Wal, RecordNamingAKindTwiceIsInapplicable) {
  io::MemEnv env;
  const auto base = raw_sections(make_state(60));
  const Bytes& params = base.at(SectionKind::kParams);
  const std::vector<HandSection> rec = {
      {SectionKind::kParams, true, Bytes(params.size(), 0x11)},
      {SectionKind::kParams, true, Bytes(params.size(), 0x22)},
  };
  env.write_file_atomic("cp/" + wal_file_name(6),
                        frame_journal(6, 60, {record_payload(61, rec)}));
  auto sections = base;
  EXPECT_FALSE(replay_wal(env, "cp", 6, sections).has_value());
  EXPECT_EQ(sections, base);
}

// ---------- replay is idempotent ----------

TEST(Wal, ReplayIsIdempotentAcrossRepeatedRecoveries) {
  io::MemEnv env;
  const auto base = make_state(40);
  WalWriter w(env, "cp", 2, WalPolicy{}, base, false);
  for (std::uint64_t step = 41; step <= 44; ++step) {
    w.log_step(make_state(step));
  }
  w.close();

  // Two independent replays from fresh base copies — as two recovery
  // attempts after a crash mid-recovery would run — land on identical
  // state: replay is a pure function of (base, valid frame prefix).
  auto first = raw_sections(base);
  auto second = raw_sections(base);
  ASSERT_TRUE(replay_wal(env, "cp", 2, first).has_value());
  ASSERT_TRUE(replay_wal(env, "cp", 2, second).has_value());
  EXPECT_EQ(first, second);
  EXPECT_EQ(state_of(first), make_state(44));
}

// ---------- group commit and budget ----------

TEST(Wal, GroupCommitSyncsEveryGRecords) {
  io::MemEnv env;
  const auto base = make_state(1);
  WalPolicy policy;
  policy.group_commit_steps = 3;
  WalWriter w(env, "cp", 1, policy, base, false);
  EXPECT_EQ(w.syncs(), 1u);  // the header is always made durable
  for (std::uint64_t step = 2; step <= 8; ++step) {
    w.log_step(make_state(step));
  }
  EXPECT_EQ(w.syncs(), 3u);  // after records 3 and 6
  w.close();                 // final sync covers the 7th record
  EXPECT_EQ(w.syncs(), 4u);
  EXPECT_EQ(w.records(), 7u);
}

TEST(Wal, GroupCommitZeroSyncsEveryRecord) {
  io::MemEnv env;
  const auto base = make_state(1);
  WalPolicy policy;
  policy.group_commit_steps = 0;
  WalWriter w(env, "cp", 1, policy, base, false);
  w.log_step(make_state(2));
  w.log_step(make_state(3));
  EXPECT_EQ(w.syncs(), 3u);  // header + one per record
}

TEST(Wal, OverBudgetTripsOnSizeAndZeroDisables) {
  io::MemEnv env;
  const auto base = make_state(1);
  WalPolicy tight;
  tight.max_log_bytes = 64;  // smaller than any one record
  WalWriter w(env, "cp", 1, tight, base, false);
  EXPECT_FALSE(w.over_budget());  // header alone fits
  w.log_step(make_state(2));
  EXPECT_TRUE(w.over_budget());

  WalPolicy unbounded;
  unbounded.max_log_bytes = 0;
  WalWriter u(env, "cp", 2, unbounded, base, false);
  u.log_step(make_state(2));
  EXPECT_FALSE(u.over_budget());
}

// ---------- Checkpointer integration ----------

TEST(CheckpointerWal, LogsBetweenInstallsAndRecoveryReplays) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  policy.wal.group_commit_steps = 1;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 8; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  // One install (step 5) and one journal record per step after it.
  EXPECT_EQ(ck.stats().checkpoints, 1u);
  EXPECT_EQ(ck.stats().wal_records, 3u);
  EXPECT_GT(ck.stats().wal_bytes, 0u);

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 8u);
  EXPECT_EQ(outcome->state, make_state(8));
  bool noted = false;
  for (const std::string& note : outcome->notes) {
    noted = noted || note.find("replayed") != std::string::npos;
  }
  EXPECT_TRUE(noted) << "replay must be surfaced in recovery notes";

  // Recovery is repeatable: a crash mid-recovery changes nothing.
  const auto again = recover_latest(env, "cp");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->state, outcome->state);

  // Exactly one journal on disk, and it belongs to the manifest tip.
  const auto files = wal_files(env, "cp");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(parse_wal_file_name(files[0]),
            Manifest::load(env, "cp").latest()->id);
}

TEST(CheckpointerWal, RecoveryWithoutJournalRecordsUsesBaseCheckpoint) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 4;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  // Install at step 4, journal rotated but empty.
  EXPECT_EQ(ck.stats().wal_records, 0u);
  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 4u);
  EXPECT_EQ(outcome->state, make_state(4));
}

TEST(CheckpointerWal, OverBudgetJournalCompactsIntoInstall) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 3;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  policy.wal.max_log_bytes = 1;  // every record overflows: compact always
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 6; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  // Install at step 3 (policy), then compaction installs at 4, 5, 6.
  EXPECT_EQ(ck.stats().checkpoints, 4u);
  EXPECT_EQ(ck.stats().wal_compactions, 3u);
  EXPECT_EQ(ck.stats().wal_records, 0u);

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 6u);
  EXPECT_EQ(outcome->state, make_state(6));

  // Rotation reaped every superseded log along the way.
  const auto files = wal_files(env, "cp");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(parse_wal_file_name(files[0]),
            Manifest::load(env, "cp").latest()->id);
}

TEST(CheckpointerWal, TornJournalTailRecoversLastFramedRecord) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 5;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  policy.wal.group_commit_steps = 1;
  Checkpointer ck(env, "cp", policy);
  for (std::uint64_t step = 1; step <= 8; ++step) {
    ck.maybe_checkpoint(make_state(step));
  }
  const std::uint64_t tip = Manifest::load(env, "cp").latest()->id;
  const std::string log = "cp/" + wal_file_name(tip);
  const auto size = env.file_size(log);
  ASSERT_TRUE(size.has_value());
  ASSERT_TRUE(env.truncate(log, *size - 1));  // tear the step-8 frame

  const auto outcome = recover_latest(env, "cp");
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->step, 7u);
  EXPECT_EQ(outcome->state, make_state(7));
}

// ---------- stale-log reaping ----------

TEST(CheckpointStoreWal, SweepReapsStaleJournalsAndPinsActive) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1));
    ck.maybe_checkpoint(make_state(2));
  }
  // Plant a journal for an epoch the manifest never advertised, as a
  // crash between fence and deletion would leave behind.
  const std::string stale = "cp/" + wal_file_name(77);
  env.write_file_atomic(stale, util::ByteSpan{});

  CheckpointStore store(env, "cp", policy.retention);
  const Manifest manifest = Manifest::load(env, "cp");
  EXPECT_EQ(store.plan_stale_wals(manifest),
            std::vector<std::string>{wal_file_name(77)});
  store.sweep_orphans(manifest);
  EXPECT_FALSE(env.exists(stale));
  EXPECT_TRUE(env.exists("cp/" + wal_file_name(manifest.latest()->id)));
  EXPECT_EQ(store.stats().wals_reaped, 1u);
}

TEST(CheckpointStoreWal, DamagedManifestSuppressesWalReaping) {
  io::MemEnv env;
  CheckpointPolicy policy;
  policy.every_steps = 1;
  policy.retention.keep_last = 0;
  policy.wal.enable = true;
  {
    Checkpointer ck(env, "cp", policy);
    ck.maybe_checkpoint(make_state(1));
  }
  env.write_file_atomic("cp/" + wal_file_name(77), util::ByteSpan{});

  // Tear the manifest: a loader warning means no journal may be called
  // stale — the manifest may have lost the very line that pins it.
  const auto data = env.read_file("cp/MANIFEST");
  ASSERT_TRUE(data.has_value());
  env.write_file_atomic("cp/MANIFEST",
                        util::ByteSpan{data->data(), data->size() - 1});
  const Manifest damaged = Manifest::load(env, "cp");
  ASSERT_GT(damaged.parse_warnings(), 0u);

  CheckpointStore store(env, "cp", policy.retention);
  EXPECT_TRUE(store.plan_stale_wals(damaged).empty());
  store.sweep_orphans(damaged);
  EXPECT_TRUE(env.exists("cp/" + wal_file_name(77)));
}

}  // namespace
}  // namespace qnn::ckpt
