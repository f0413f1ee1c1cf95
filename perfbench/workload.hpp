// Workload definitions and the seeded state generator.
//
// A workload is a checkpoint policy, an Env shape and a TrainingState
// sequence. The sequence is a pure function of (job seed, step): the
// state at any step can be rebuilt from scratch (seek), which is what
// lets a job continue from whatever step recovery returned. All random
// bytes come from a word pool generated once during set-up, so drawing
// a state costs copies and a few arithmetic passes, never a PRNG run
// over megabytes inside the loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "qnn/training_state.hpp"

namespace qnnbench {

struct Workload {
  std::string name;

  // --- state shape ---
  std::size_t n_params = 0;
  /// Adam first and second moments (2 x n_params doubles) in
  /// optimizer_state; otherwise the optimizer state is empty.
  bool adam_moments = false;
  /// When > 0, params are split into this many equal windows and only
  /// window (step-1) % n_windows is redrawn each step; otherwise every
  /// parameter is perturbed every step.
  std::size_t n_windows = 0;
  /// Bytes of fresh simulator snapshot per step (0 = none).
  std::size_t sim_bytes = 0;
  /// Words in the random pool drawn during set-up.
  std::size_t pool_words = 0;

  // --- job shape ---
  /// Steps of one job; each job starts at step 0 in a fresh directory.
  std::uint64_t steps_per_job = 0;
  /// Restart (shutdown + recover_latest + reopen) every this many steps,
  /// and after the job's last step.
  std::uint64_t resume_every = 0;

  /// A non-zero policy.tier.hot_byte_budget also selects the storage
  /// shape: a TieredEnv over hot/ and cold/ PrefixEnv subtrees.
  qnn::ckpt::CheckpointPolicy policy;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);
/// The workload's effective configuration as one JSON object, checked
/// by run.py against perfbench/design.json so the recorded design and
/// the code cannot drift apart.
std::string config_json(const Workload& w);

/// Random words shared by every job of a run.
using Pool = std::vector<std::uint64_t>;
/// Overwrites every word of `pool` with the stream for `seed`.
void fill_pool(Pool& pool, std::uint64_t seed);

std::uint64_t mix64(std::uint64_t x);

class StateGenerator {
 public:
  StateGenerator(const Workload& w, const Pool& pool, std::uint64_t job_seed);

  /// Rebuilds the state at `step` from scratch.
  const qnn::qnn::TrainingState& seek(std::uint64_t step);
  /// Moves to step()+1, updating only what changes.
  const qnn::qnn::TrainingState& advance();

  [[nodiscard]] const qnn::qnn::TrainingState& current() const {
    return state_;
  }
  [[nodiscard]] std::uint64_t step() const { return state_.step; }
  /// TrainingState::component_sizes().total() of the state at `step`.
  [[nodiscard]] std::uint64_t raw_bytes_at(std::uint64_t step) const;

 private:
  [[nodiscard]] std::size_t offset(std::uint64_t step, std::uint64_t lane,
                                   std::size_t span) const;
  [[nodiscard]] double loss_at(std::uint64_t k) const;
  void draw_step_fields(std::uint64_t step);
  void draw_window(std::uint64_t step);
  void draw_permutation(std::uint64_t epoch);

  const Workload& w_;
  const Pool& pool_;
  const std::uint64_t job_seed_;
  std::vector<double> base_params_;
  std::uint64_t fixed_raw_bytes_ = 0;
  qnn::qnn::TrainingState state_;
};

}  // namespace qnnbench
