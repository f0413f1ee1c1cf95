#include "layer_replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "ckpt/cas.hpp"
#include "ckpt/format.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/wal.hpp"
#include "codec/codec.hpp"
#include "codec/xor_delta.hpp"
#include "trainer_loop.hpp"

namespace qnnbench {

namespace ckpt = qnn::ckpt;
namespace codec = qnn::codec;
using qnn::util::Bytes;
using qnn::util::ByteSpan;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds per call of `f`, after one untimed warm-up call, repeating
/// until `budget` seconds have passed.
template <typename F>
double seconds_per_call(double budget, F&& f) {
  f();
  std::size_t n = 0;
  const auto t0 = Clock::now();
  do {
    f();
    ++n;
  } while (since(t0) < budget);
  return since(t0) / static_cast<double>(n);
}

std::size_t effective_chunk_bytes(const Workload& w) {
  return std::max(w.policy.chunk_bytes, ckpt::kMinChunkBytes);
}

std::uint16_t effective_version(const Workload& w) {
  return w.policy.format_version == 0 ? ckpt::kFormatVersion
                                      : w.policy.format_version;
}

bool include_simulator(const Workload& w) {
  return w.policy.strategy != ckpt::Strategy::kParamsOnly;
}

bool externed(const Workload& w, const ckpt::Section& s) {
  return effective_version(w) >= 3 && s.payload.size() > effective_chunk_bytes(w);
}

std::vector<ckpt::Section> sections_of(const Workload& w,
                                       const qnn::qnn::TrainingState& state) {
  return ckpt::state_to_sections(state, include_simulator(w), w.policy.codec);
}

/// The byte ranges the encoder keys and compresses: each content-
/// addressed section split at chunk_bytes, every other section whole.
std::vector<ByteSpan> units_of(const Workload& w,
                               const std::vector<ckpt::Section>& sections) {
  std::vector<ByteSpan> units;
  const std::size_t chunk = effective_chunk_bytes(w);
  for (const ckpt::Section& s : sections) {
    const ByteSpan all(s.payload);
    if (!externed(w, s)) {
      units.push_back(all);
      continue;
    }
    for (std::size_t off = 0; off < all.size(); off += chunk) {
      units.push_back(all.subspan(off, std::min(chunk, all.size() - off)));
    }
  }
  return units;
}

std::uint64_t total_bytes(const std::vector<ByteSpan>& units) {
  std::uint64_t n = 0;
  for (const ByteSpan u : units) {
    n += u.size();
  }
  return n;
}

/// What Checkpointer::build_file hands the encoder for `state`: under the
/// incremental strategy every section is an XOR delta against `parent`.
ckpt::CheckpointFile file_of(const Workload& w,
                             const qnn::qnn::TrainingState& state,
                             const std::vector<ckpt::Section>& parent) {
  ckpt::CheckpointFile file;
  file.checkpoint_id = 1'000'000'000;
  file.step = state.step;
  file.sections = sections_of(w, state);
  if (w.policy.strategy == ckpt::Strategy::kIncremental) {
    file.parent_id = file.checkpoint_id - 1;
    for (std::size_t i = 0; i < file.sections.size(); ++i) {
      ckpt::Section& s = file.sections[i];
      s.payload = codec::xor_with_parent(s.payload, parent.at(i).payload);
      s.flags |= ckpt::kSectionFlagDelta;
    }
  }
  return file;
}

/// Dedup probes per second from `threads` threads at once, each probing
/// `keys` through batches of its own (one batch per pass, as one
/// checkpoint's encode would).
double probes_per_s(ckpt::ChunkStore& store,
                    const std::vector<ckpt::ChunkKey>& keys,
                    std::size_t threads, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> epoch{2'000'000'000};
  const auto worker = [&] {
    std::uint64_t mine = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto batch = store.begin_batch(epoch.fetch_add(1));
      for (const ckpt::ChunkKey& key : keys) {
        batch->contains(key);
      }
      mine += keys.size();
    }
    probes.fetch_add(mine);
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back(worker);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : pool) {
    t.join();
  }
  return static_cast<double>(probes.load()) / since(t0);
}

}  // namespace

std::size_t inline_sections(const Workload& w,
                            const qnn::qnn::TrainingState& state) {
  std::size_t n = 0;
  for (const ckpt::Section& s : sections_of(w, state)) {
    n += externed(w, s) ? 0 : 1;
  }
  return n;
}

std::vector<std::pair<std::string, double>> replay_layers(
    const ReplayInput& in) {
  const Workload& w = *in.workload;
  const double budget = in.seconds_per_layer;
  std::vector<std::pair<std::string, double>> out;

  StateGenerator gen(w, *in.pool, in.job_seed);
  const std::uint64_t n = in.last_step;
  const qnn::qnn::TrainingState last = gen.seek(n);
  const qnn::qnn::TrainingState next = gen.seek(n + 1);
  const std::vector<ckpt::Section> sections = sections_of(w, last);
  const std::vector<ckpt::Section> next_sections = sections_of(w, next);

  // ckpt.state_codec
  out.emplace_back("state_codec.us_per_ckpt", 1e6 * seconds_per_call(budget, [&] {
    (void)ckpt::state_to_sections(last, include_simulator(w), w.policy.codec);
  }));

  // util.crc, through the content key the encoder computes per chunk.
  const std::vector<ByteSpan> units = units_of(w, sections);
  const double unit_mb = static_cast<double>(total_bytes(units)) / 1e6;
  out.emplace_back("crc.crc32c_mb_per_s",
                   unit_mb / seconds_per_call(budget, [&] {
                     for (const ByteSpan u : units) {
                       (void)ckpt::chunk_key(u);
                     }
                   }));

  // codec: what the encoder compresses for the next step (deltas under
  // kIncremental).
  const ckpt::CheckpointFile file = file_of(w, next, sections);
  std::vector<ByteSpan> codec_units = units_of(w, file.sections);
  const double codec_mb = static_cast<double>(total_bytes(codec_units)) / 1e6;
  std::vector<Bytes> encoded(codec_units.size());
  const double enc_s = seconds_per_call(budget, [&] {
    for (std::size_t i = 0; i < codec_units.size(); ++i) {
      encoded[i] = codec::encode(w.policy.codec, codec_units[i]);
    }
  });
  std::uint64_t encoded_bytes = 0;
  for (const Bytes& e : encoded) {
    encoded_bytes += e.size();
  }
  const double dec_s = seconds_per_call(budget, [&] {
    for (std::size_t i = 0; i < codec_units.size(); ++i) {
      (void)codec::decode(w.policy.codec, encoded[i], codec_units[i].size());
    }
  });
  out.emplace_back("codec.lz.encode_mb_per_s", codec_mb / enc_s);
  out.emplace_back("codec.lz.decode_mb_per_s", codec_mb / dec_s);
  out.emplace_back("codec.ratio", static_cast<double>(encoded_bytes) /
                                      (1e6 * codec_mb));
  double section_mb = 0.0;
  for (const ckpt::Section& s : sections) {
    section_mb += static_cast<double>(s.payload.size()) / 1e6;
  }
  out.emplace_back("codec.xor_delta_mb_per_s",
                   section_mb / seconds_per_call(budget, [&] {
                     for (std::size_t i = 0; i < sections.size(); ++i) {
                       (void)codec::xor_with_parent(next_sections[i].payload,
                                                    sections[i].payload);
                     }
                   }));

  // The job's own directory, through the same Env shape it was written by.
  EnvStack stack(w, in.job_root, *in.job_storage, nullptr);
  qnn::io::Env& env = *stack.top;
  const ckpt::Manifest manifest = ckpt::Manifest::load(env, stack.dir);
  const ckpt::ManifestEntry* newest = manifest.latest();
  const std::string newest_path =
      newest != nullptr ? stack.dir + "/" + newest->file : std::string();

  // ckpt.format: encode the next step with the run's chunk store as the
  // sink (dedup hits and fresh chunks as the run would see them; the
  // staged pack is aborted), and decode the newest container resolving
  // chunks from the store.
  {
    ckpt::ChunkStore store(env, stack.dir);
    std::uint64_t epoch = 3'000'000'000;
    out.emplace_back("format.encode_us_per_ckpt",
                     1e6 * seconds_per_call(budget, [&] {
                       auto batch = store.begin_batch(epoch++);
                       Bytes container;
                       ckpt::BufferSink sink(container);
                       ckpt::EncodeOptions options;
                       options.chunk_bytes = w.policy.chunk_bytes;
                       options.version = effective_version(w);
                       options.sink =
                           effective_version(w) >= 3 ? batch.get() : nullptr;
                       (void)ckpt::encode_checkpoint(file, options, sink);
                     }));
    double decode_us = 0.0;
    if (newest != nullptr) {
      const auto bytes = env.read_file(newest_path);
      if (bytes) {
        ckpt::DecodeOptions options;
        options.source = &store;
        decode_us = 1e6 * seconds_per_call(budget, [&] {
          (void)ckpt::decode_checkpoint(*bytes, options);
        });
      }
    }
    out.emplace_back("format.decode_us_per_resume", decode_us);
  }

  // ckpt.manifest
  RamEnv scratch_env;
  out.emplace_back("manifest.save_us", 1e6 * seconds_per_call(budget, [&] {
                     manifest.save(scratch_env, in.scratch_dir);
                   }));
  out.emplace_back("manifest.load_us", 1e6 * seconds_per_call(budget, [&] {
                     (void)ckpt::Manifest::load(env, stack.dir);
                   }));

  // ckpt.cas: dedup probes for the next step's chunks against the store
  // as the run left it, from 1 thread and from 2 at once.
  {
    std::vector<ckpt::ChunkKey> keys;
    for (const ByteSpan u : units_of(w, next_sections)) {
      keys.push_back(ckpt::chunk_key(u));
    }
    ckpt::ChunkStore store(env, stack.dir);
    store.open();
    out.emplace_back("cas.probes_per_s.1t", probes_per_s(store, keys, 1, budget));
    out.emplace_back("cas.probes_per_s.2t", probes_per_s(store, keys, 2, budget));
  }

  // ckpt.cas: open + ranged chunk reads of the newest checkpoint.
  {
    std::vector<ckpt::ChunkKey> refs;
    if (newest != nullptr) {
      refs = ckpt::list_chunk_refs(env, newest_path);
    }
    const auto t0 = Clock::now();
    ckpt::ChunkStore store(env, stack.dir);
    store.open();
    out.emplace_back("cas.open_us", 1e6 * since(t0));
    double get_us = 0.0;
    if (!refs.empty()) {
      const auto t1 = Clock::now();
      for (const ckpt::ChunkKey& key : refs) {
        (void)store.get(key);
      }
      get_us = 1e6 * since(t1) / static_cast<double>(refs.size());
    }
    out.emplace_back("cas.get_us_per_chunk", get_us);
    out.emplace_back("cas.pack_handle_evictions",
                     static_cast<double>(store.stats().pack_handle_evictions));
  }

  // ckpt.wal: journal the sample's last few steps, then replay them.
  {
    constexpr std::uint64_t kRecords = 4;
    const std::uint64_t first = n > kRecords ? n - kRecords : 0;
    std::vector<qnn::qnn::TrainingState> states;
    for (std::uint64_t s = first; s <= n; ++s) {
      states.push_back(gen.seek(s));
    }
    ckpt::WalPolicy wal = w.policy.wal;
    wal.enable = true;
    double log_s = 0.0;
    std::uint64_t logged = 0;
    std::map<ckpt::SectionKind, Bytes> base;
    for (const ckpt::Section& s : sections_of(w, states.front())) {
      base[s.kind] = s.payload;
    }
    std::uint64_t epoch = 1;
    bool more = true;
    const auto t0 = Clock::now();
    do {
      ckpt::WalWriter writer(scratch_env, in.scratch_dir, epoch, wal,
                             states.front(), include_simulator(w));
      for (std::size_t i = 1; i < states.size(); ++i) {
        const auto t1 = Clock::now();
        writer.log_step(states[i]);
        log_s += since(t1);
        ++logged;
      }
      writer.close();
      more = since(t0) < budget;
      if (more) {
        scratch_env.remove_file(in.scratch_dir + "/" +
                                ckpt::wal_file_name(epoch));
        ++epoch;
      }
    } while (more);
    out.emplace_back("wal.log_step_us", 1e6 * log_s / static_cast<double>(logged));
    out.emplace_back("wal.replay_wal_us", 1e6 * seconds_per_call(budget, [&] {
                       std::map<ckpt::SectionKind, Bytes> sections = base;
                       (void)ckpt::replay_wal(scratch_env, in.scratch_dir, epoch,
                                              sections);
                     }));
  }
  return out;
}

}  // namespace qnnbench
