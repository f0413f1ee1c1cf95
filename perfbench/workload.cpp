#include "workload.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace qnnbench {

namespace ckpt = qnn::ckpt;

namespace {

constexpr std::uint64_t kBatch = 256;  // data-cursor permutation length

// Why each workload exists, and which layers it must leave idle, is
// recorded in perfbench/design.json (checked against config_json below).
std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "params-sync";
    w.n_params = 512;
    w.adam_moments = true;
    w.pool_words = std::size_t{1} << 20;
    w.steps_per_job = 2000;
    w.resume_every = 20;
    w.policy.strategy = ckpt::Strategy::kIncremental;
    w.policy.full_every = 10;
    w.policy.every_steps = 1;
    w.policy.retention.keep_last = 3;
    w.policy.async = false;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "bulk-async";
    w.n_params = std::size_t{4} << 17;  // 4 MiB of doubles
    w.n_windows = 20;                    // a 5% window redrawn per step
    w.sim_bytes = std::size_t{2} << 20;
    w.pool_words = std::size_t{2} << 20;
    // A job's second step waits for its first, all-new encode. At 50 steps
    // those waits are 2% of the stalls, so p99 is that wait rather than the
    // edge between it and the steady tail (design.json, job_length).
    w.steps_per_job = 50;
    w.resume_every = 10;
    w.policy.strategy = ckpt::Strategy::kFullState;
    w.policy.format_version = 3;
    w.policy.chunk_bytes = std::size_t{16} << 10;
    w.policy.every_steps = 1;
    w.policy.retention.keep_last = 6;
    w.policy.async = true;
    w.policy.encode_threads = 2;
    w.policy.writer_threads = 1;
    // One checkpoint in the encode stage: every step waits for the
    // previous encode, so the stall distribution has one mode. With 2,
    // blocked and unblocked steps alternate and the median straddles the
    // two modes; with 6, p99 is the first block after each restart,
    // whose wait swings with how the pool interleaves six encodes.
    w.policy.encode_queue = 1;
    w.policy.tier.hot_byte_budget = std::uint64_t{18} << 20;  // ~3 ckpts
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "wal-journal";
    w.n_params = std::size_t{32} << 10;
    w.adam_moments = true;
    w.pool_words = std::size_t{1} << 20;
    w.steps_per_job = 800;
    w.resume_every = 40;
    w.policy.strategy = ckpt::Strategy::kParamsOnly;
    w.policy.every_steps = 16;
    w.policy.async = false;
    w.policy.wal.enable = true;
    w.policy.wal.group_commit_steps = 4;
    out.push_back(std::move(w));
  }
  return out;
}

double unit(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-52 - 1.0;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string config_json(const Workload& w) {
  const ckpt::CheckpointPolicy& p = w.policy;
  std::ostringstream os;
  os << "{\"n_params\":" << w.n_params
     << ",\"adam_moments\":" << (w.adam_moments ? "true" : "false")
     << ",\"n_windows\":" << w.n_windows << ",\"sim_bytes\":" << w.sim_bytes
     << ",\"pool_words\":" << w.pool_words
     << ",\"steps_per_job\":" << w.steps_per_job
     << ",\"resume_every\":" << w.resume_every
     << ",\"hot_budget_bytes\":" << p.tier.hot_byte_budget << ",\"strategy\":\""
     << ckpt::strategy_name(p.strategy) << "\",\"codec\":\""
     << qnn::codec::codec_name(p.codec) << "\",\"every_steps\":"
     << p.every_steps << ",\"full_every\":" << p.full_every
     << ",\"keep_last\":" << p.retention.keep_last
     << ",\"async\":" << (p.async ? "true" : "false")
     << ",\"encode_threads\":" << p.encode_threads
     << ",\"writer_threads\":" << p.writer_threads
     << ",\"encode_queue\":" << p.encode_queue
     << ",\"chunk_bytes\":" << p.chunk_bytes
     << ",\"format_version\":" << p.format_version
     << ",\"wal\":" << (p.wal.enable ? "true" : "false")
     << ",\"wal_group_commit_steps\":" << p.wal.group_commit_steps
     << ",\"wal_max_log_bytes\":" << p.wal.max_log_bytes << "}";
  return os.str();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void fill_pool(Pool& pool, std::uint64_t seed) {
  std::uint64_t x = mix64(seed);
  for (std::uint64_t& word : pool) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    word = z ^ (z >> 31);
  }
}

StateGenerator::StateGenerator(const Workload& w, const Pool& pool,
                               std::uint64_t job_seed)
    : w_(w), pool_(pool), job_seed_(job_seed) {
  const std::size_t base = offset(0, 3, w_.n_params);
  base_params_.resize(w_.n_params);
  for (std::size_t i = 0; i < w_.n_params; ++i) {
    base_params_[i] = 3.0 * unit(pool_[base + i]);
  }
  state_.optimizer_name = w_.adam_moments ? "adam" : "sgd";
  state_.workload_tag = "qnnbench-" + w_.name;
  state_.circuit_fingerprint = mix64(job_seed_ ^ 0xC1C1ull);
  state_.rng_state.resize(32);
  if (w_.adam_moments) {
    state_.optimizer_state.resize(2 * w_.n_params * sizeof(double));
  }
  state_.simulator_state.resize(w_.sim_bytes);
  seek(0);
  fixed_raw_bytes_ = state_.component_sizes().total();
}

std::size_t StateGenerator::offset(std::uint64_t step, std::uint64_t lane,
                                   std::size_t span) const {
  return static_cast<std::size_t>(
      mix64(job_seed_ ^ mix64(step * 4 + lane)) % (pool_.size() - span));
}

double StateGenerator::loss_at(std::uint64_t k) const {
  return 1.0 / (1.0 + 0.002 * static_cast<double>(k)) +
         1e-3 * unit(mix64(job_seed_ + k * 0xA24BAED4963EE407ull));
}

std::uint64_t StateGenerator::raw_bytes_at(std::uint64_t step) const {
  return fixed_raw_bytes_ + step * sizeof(double);
}

void StateGenerator::draw_permutation(std::uint64_t epoch) {
  state_.permutation.resize(kBatch);
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    state_.permutation[i] = i;
  }
  std::uint64_t x = mix64(job_seed_ ^ (epoch * 0xD6E8FEB86659FD93ull));
  for (std::size_t i = kBatch - 1; i > 0; --i) {
    x = mix64(x);
    std::swap(state_.permutation[i], state_.permutation[x % (i + 1)]);
  }
}

void StateGenerator::draw_window(std::uint64_t step) {
  const std::size_t width = w_.n_params / w_.n_windows;
  const std::size_t w = (step - 1) % w_.n_windows;
  const std::size_t begin = w * width;
  const std::size_t end = w + 1 == w_.n_windows ? w_.n_params : begin + width;
  const std::size_t o = offset(step, 0, end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    state_.params[i] = 3.0 * unit(pool_[o + i - begin]);
  }
}

void StateGenerator::draw_step_fields(std::uint64_t step) {
  state_.step = step;
  state_.epoch = step / kBatch;
  state_.cursor = step % kBatch;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t word = mix64(job_seed_ ^ (step * 8 + k));
    std::memcpy(state_.rng_state.data() + k * 8, &word, 8);
  }
  const std::size_t n = w_.n_params;
  if (w_.n_windows == 0) {
    // Every parameter moves a little around its base value.
    const std::size_t o = offset(step, 0, n);
    for (std::size_t i = 0; i < n; ++i) {
      state_.params[i] = base_params_[i] + 1e-3 * unit(pool_[o + i]);
    }
  }
  if (w_.adam_moments) {
    const std::size_t o = offset(step, 1, 2 * n);
    auto* moments = reinterpret_cast<std::uint8_t*>(
        state_.optimizer_state.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double m = 1e-2 * unit(pool_[o + i]);
      const double v = 1e-4 * (1.5 + unit(pool_[o + n + i]));
      std::memcpy(moments + i * sizeof(double), &m, sizeof(double));
      std::memcpy(moments + (n + i) * sizeof(double), &v, sizeof(double));
    }
  }
  if (w_.sim_bytes > 0) {
    // Fresh every step: a pool slice XORed with a per-step salt, so no
    // chunk of it can repeat an earlier step's content.
    const std::size_t words = w_.sim_bytes / sizeof(std::uint64_t);
    const std::size_t o = offset(step, 2, words);
    const std::uint64_t salt = mix64(job_seed_ + step);
    auto* out = state_.simulator_state.data();
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t word = pool_[o + i] ^ salt;
      std::memcpy(out + i * sizeof(std::uint64_t), &word, sizeof(word));
    }
  }
}

const qnn::qnn::TrainingState& StateGenerator::seek(std::uint64_t step) {
  state_.params = base_params_;
  if (w_.n_windows > 0) {
    // Window w was last redrawn at the latest s <= step with
    // (s - 1) % n_windows == w.
    for (std::size_t w = 0; w < w_.n_windows && w < step; ++w) {
      draw_window(step - (step - 1 - w) % w_.n_windows);
    }
  }
  state_.loss_history.clear();
  for (std::uint64_t k = 1; k <= step; ++k) {
    state_.loss_history.push_back(loss_at(k));
  }
  draw_permutation(step / kBatch);
  draw_step_fields(step);
  return state_;
}

const qnn::qnn::TrainingState& StateGenerator::advance() {
  const std::uint64_t step = state_.step + 1;
  if (w_.n_windows > 0) {
    draw_window(step);
  }
  state_.loss_history.push_back(loss_at(step));
  if (step / kBatch != state_.epoch) {
    draw_permutation(step / kBatch);
  }
  draw_step_fields(step);
  return state_;
}

}  // namespace qnnbench
