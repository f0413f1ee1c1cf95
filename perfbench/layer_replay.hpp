// Direct layer replay: times the library's public per-layer functions on
// a sample of one workload's own inputs and on the directory its last
// traced job left behind.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ram_env.hpp"
#include "workload.hpp"

namespace qnnbench {

struct ReplayInput {
  const Workload* workload = nullptr;
  const Pool* pool = nullptr;
  std::string job_root;     ///< a finished job's directory
  RamEnv* job_storage = nullptr;  ///< the storage that holds it
  std::uint64_t job_seed = 0;
  std::uint64_t last_step = 0;
  std::string scratch_dir;  ///< private directory for write replays
  double seconds_per_layer = 0.1;
};

/// (metric name, value) pairs, in a fixed order.
std::vector<std::pair<std::string, double>> replay_layers(
    const ReplayInput& in);

/// Sections the encoder keeps inline (not content-addressed) per
/// checkpoint of `state` under the workload's policy.
std::size_t inline_sections(const Workload& w,
                            const qnn::qnn::TrainingState& state);

}  // namespace qnnbench
