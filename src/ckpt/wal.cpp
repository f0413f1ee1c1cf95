#include "ckpt/wal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "ckpt/state_codec.hpp"
#include "codec/xor_delta.hpp"
#include "util/bytes.hpp"
#include "util/crc.hpp"

namespace qnn::ckpt {

namespace {

constexpr char kWalMagic[4] = {'Q', 'W', 'A', 'L'};
constexpr std::uint16_t kWalVersion = 1;
/// magic(4) + version(2) + epoch(8) + base_step(8) + crc(4).
constexpr std::size_t kWalHeaderSize = 26;
/// payload_len(8) + crc(4).
constexpr std::size_t kFramePrefixSize = 12;
/// step(8) + n_sections(4).
constexpr std::size_t kRecordHeaderSize = 12;
/// kind(2) + flags(1) + len(8).
constexpr std::size_t kSectionHeaderSize = 11;

Bytes encode_header(std::uint64_t epoch, std::uint64_t base_step) {
  Bytes out;
  out.insert(out.end(), kWalMagic, kWalMagic + sizeof(kWalMagic));
  util::put_le<std::uint16_t>(out, kWalVersion);
  util::put_le<std::uint64_t>(out, epoch);
  util::put_le<std::uint64_t>(out, base_step);
  util::put_le<std::uint32_t>(out, util::crc32c(out));
  return out;
}

/// Stores `v` as `sizeof(T)` little-endian bytes at `p` (the in-place
/// counterpart of util::put_le); returns the position after it.
template <typename T>
std::uint8_t* store_le(std::uint8_t* p, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

/// One record section, viewed in place inside the journal bytes.
struct RecordSection {
  SectionKind kind;
  std::uint8_t flags;
  ByteSpan payload;

  [[nodiscard]] bool is_delta() const {
    return (flags & kSectionFlagDelta) != 0;
  }
};

struct Record {
  std::uint64_t step = 0;
  std::vector<RecordSection> sections;
};

/// Parses a CRC-validated frame payload into `rec`, whose sections view
/// `payload` (nothing is copied; `rec.sections` keeps its capacity from
/// record to record). Throws std::out_of_range / std::runtime_error on
/// malformed contents (treated as a torn tail by the callers — a valid
/// CRC over garbage means the writer never wrote it, so the bytes past
/// the previous frame are not a record).
void parse_record(ByteSpan payload, Record& rec) {
  std::size_t off = 0;
  rec.step = util::get_le<std::uint64_t>(payload, off);
  const auto n = util::get_le<std::uint32_t>(payload, off);
  rec.sections.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto kind =
        static_cast<SectionKind>(util::get_le<std::uint16_t>(payload, off));
    const auto flags = util::get_le<std::uint8_t>(payload, off);
    const auto len = util::get_le<std::uint64_t>(payload, off);
    if (len > payload.size() - off) {
      throw std::out_of_range("wal record: section underrun");
    }
    rec.sections.push_back({kind, flags, payload.subspan(off, len)});
    off += len;
  }
  if (off != payload.size()) {
    throw std::runtime_error("wal record: trailing bytes");
  }
}

/// Whole-record check against the running state, made before any
/// section lands so that a record applies in full or not at all: every
/// delta needs an equal-sized base, and no kind may appear twice (its
/// second section would be checked against a base the first replaces).
bool applicable(const Record& rec,
                const std::map<SectionKind, Bytes>& sections) {
  for (std::size_t i = 0; i < rec.sections.size(); ++i) {
    const RecordSection& s = rec.sections[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (rec.sections[j].kind == s.kind) {
        return false;
      }
    }
    if (s.is_delta()) {
      const auto base = sections.find(s.kind);
      if (base == sections.end() || base->second.size() != s.payload.size()) {
        return false;
      }
    }
  }
  return true;
}

/// Shared frame walk for scan/replay: validates the header, then calls
/// `on_record` for each fully-framed record until the first torn or
/// invalid frame. Returns nullopt when the header is unusable.
template <typename OnRecord>
std::optional<WalScan> walk_wal(io::Env& env, const std::string& dir,
                                std::uint64_t epoch, OnRecord&& on_record) {
  const auto data = env.read_file(dir + "/" + wal_file_name(epoch));
  if (!data || data->size() < kWalHeaderSize) {
    return std::nullopt;
  }
  const ByteSpan bytes(*data);
  if (!std::equal(kWalMagic, kWalMagic + sizeof(kWalMagic), bytes.begin())) {
    return std::nullopt;
  }
  std::size_t off = sizeof(kWalMagic);
  const auto version = util::get_le<std::uint16_t>(bytes, off);
  const auto file_epoch = util::get_le<std::uint64_t>(bytes, off);
  const auto base_step = util::get_le<std::uint64_t>(bytes, off);
  const auto header_crc = util::get_le<std::uint32_t>(bytes, off);
  if (version != kWalVersion || file_epoch != epoch ||
      header_crc != util::crc32c(bytes.first(kWalHeaderSize - 4))) {
    return std::nullopt;
  }
  WalScan scan;
  scan.epoch = epoch;
  scan.base_step = base_step;
  scan.last_step = base_step;
  scan.valid_bytes = kWalHeaderSize;
  Record rec;
  while (off + kFramePrefixSize <= bytes.size()) {
    std::size_t frame_off = off;
    const auto payload_len = util::get_le<std::uint64_t>(bytes, frame_off);
    const auto frame_crc = util::get_le<std::uint32_t>(bytes, frame_off);
    if (payload_len > bytes.size() - frame_off) {
      break;  // torn frame: the length outruns the durable bytes
    }
    const ByteSpan payload = bytes.subspan(frame_off, payload_len);
    if (frame_crc !=
        util::crc32c(payload, util::crc32c(bytes.subspan(off, 8)))) {
      break;  // torn or corrupt frame
    }
    try {
      parse_record(payload, rec);
    } catch (const std::exception&) {
      break;  // CRC-valid but malformed: not something the writer framed
    }
    if (!on_record(rec)) {
      break;  // inapplicable record (e.g. delta with no base): stop redo
    }
    off = frame_off + payload_len;
    ++scan.records;
    scan.last_step = rec.step;
    scan.valid_bytes = off;
  }
  scan.torn_bytes = bytes.size() - scan.valid_bytes;
  return scan;
}

}  // namespace

std::string wal_file_name(std::uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.qwal",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::optional<std::uint64_t> parse_wal_file_name(const std::string& name) {
  // "wal-" + 10 digits + ".qwal" = 19 chars.
  if (name.size() != 19 || name.rfind("wal-", 0) != 0 ||
      name.compare(14, 5, ".qwal") != 0) {
    return std::nullopt;
  }
  std::uint64_t epoch = 0;
  for (std::size_t i = 4; i < 14; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

std::optional<WalScan> scan_wal(io::Env& env, const std::string& dir,
                                std::uint64_t epoch) {
  return walk_wal(env, dir, epoch, [](const Record&) { return true; });
}

std::optional<WalReplay> replay_wal(io::Env& env, const std::string& dir,
                                    std::uint64_t epoch,
                                    std::map<SectionKind, Bytes>& sections) {
  std::uint64_t applied = 0;
  std::uint64_t step = 0;
  const auto scan =
      walk_wal(env, dir, epoch, [&](const Record& rec) {
        if (!applicable(rec, sections)) {
          return false;
        }
        // In place: a delta XORs its base buffer, a raw section reuses
        // its destination's capacity.
        for (const RecordSection& s : rec.sections) {
          Bytes& dst = sections[s.kind];
          if (s.is_delta()) {
            codec::xor_into(dst, s.payload, dst);
          } else {
            dst.assign(s.payload.begin(), s.payload.end());
          }
        }
        ++applied;
        step = rec.step;
        return true;
      });
  if (!scan || applied == 0) {
    return std::nullopt;  // nothing applied: `sections` is untouched
  }
  return WalReplay{applied, step, scan->torn_bytes};
}

WalWriter::WalWriter(io::Env& env, const std::string& dir, std::uint64_t epoch,
                     WalPolicy policy, const qnn::TrainingState& base,
                     bool include_simulator)
    : env_(env),
      epoch_(epoch),
      policy_(policy),
      include_simulator_(include_simulator) {
  for (Section& s :
       state_to_sections(base, include_simulator_, codec::CodecId::kRaw)) {
    last_raw_[s.kind] = std::move(s.payload);
  }
  // kPlain truncates at open, so a stale log under the same name (id
  // reuse after a crash) can never leak records into this epoch.
  out_ = env_.new_writable(dir + "/" + wal_file_name(epoch_),
                           io::WriteMode::kPlain);
  const Bytes header = encode_header(epoch_, base.step);
  out_->append(header);
  out_->sync();  // the log must exist durably before records ride the cache
  ++syncs_;
  bytes_ = header.size();
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destruction during unwind (e.g. a scheduled crash) must not throw;
    // the torn tail is exactly what recovery is built to truncate.
  }
}

void WalWriter::log_step(const qnn::TrainingState& state) {
  auto sections =
      state_to_sections(state, include_simulator_, codec::CodecId::kRaw);
  // Size the record first, then frame it in one pass: prefix, record
  // header and every section (XOR delta or raw) go straight into the
  // reused frame buffer; the CRC is patched in last.
  std::uint64_t payload_len = kRecordHeaderSize;
  for (const Section& s : sections) {
    payload_len += kSectionHeaderSize + s.payload.size();
  }
  frame_.resize(kFramePrefixSize + payload_len);
  std::uint8_t* p = store_le<std::uint64_t>(frame_.data(), payload_len);
  p += 4;  // crc32c, patched below
  p = store_le<std::uint64_t>(p, state.step);
  p = store_le<std::uint32_t>(p, static_cast<std::uint32_t>(sections.size()));
  for (Section& s : sections) {
    const auto base = last_raw_.find(s.kind);
    const bool delta =
        base != last_raw_.end() && base->second.size() == s.payload.size();
    p = store_le<std::uint16_t>(p, static_cast<std::uint16_t>(s.kind));
    p = store_le<std::uint8_t>(p, delta ? kSectionFlagDelta : 0);
    p = store_le<std::uint64_t>(p, s.payload.size());
    if (delta) {
      codec::xor_into({p, s.payload.size()}, s.payload, base->second);
      p += s.payload.size();
      base->second = std::move(s.payload);
    } else {
      // Size changed (e.g. a growing loss history): log raw.
      p = std::copy(s.payload.begin(), s.payload.end(), p);
      last_raw_[s.kind] = std::move(s.payload);
    }
  }
  const ByteSpan frame(frame_);
  store_le<std::uint32_t>(
      frame_.data() + 8,
      util::crc32c(frame.subspan(kFramePrefixSize),
                   util::crc32c(frame.first(8))));
  out_->append(frame);  // one append = one crash-atomic frame boundary
  bytes_ += frame.size();
  ++records_;
  ++unsynced_;
  if (unsynced_ >= std::max<std::uint64_t>(policy_.group_commit_steps, 1)) {
    sync();
  }
}

void WalWriter::sync() {
  if (out_ == nullptr || unsynced_ == 0) {
    return;
  }
  out_->sync();
  ++syncs_;
  unsynced_ = 0;
}

void WalWriter::close() {
  if (out_ == nullptr) {
    return;
  }
  sync();
  out_->close();
  out_.reset();
}

}  // namespace qnn::ckpt
