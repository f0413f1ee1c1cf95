// The closed-loop trainer: one client feeding a workload's states to a
// Checkpointer, restarting the job every `resume_every` steps through
// recover_latest, and checking every resume bit-exact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "io/env.hpp"
#include "io/prefix_env.hpp"
#include "obs/metrics.hpp"
#include "obs/observed_env.hpp"
#include "obs/trace.hpp"
#include "ram_env.hpp"
#include "tier/shaped_env.hpp"
#include "tier/tiered_env.hpp"
#include "workload.hpp"

namespace qnnbench {

/// One job's storage: a RamEnv at the bottom, an optional ObservedEnv and
/// path-counting Env above it (traced runs), a ShapedEnv(local_nvme)
/// pricing every device op, and for tiered workloads a TieredEnv over
/// hot/ and cold/ PrefixEnv subtrees.
class CountingEnv;
struct EnvStack {
  EnvStack(const Workload& w, const std::string& root, RamEnv& storage,
           qnn::obs::MetricsRegistry* metrics);
  ~EnvStack();
  EnvStack(const EnvStack&) = delete;
  EnvStack& operator=(const EnvStack&) = delete;

  RamEnv& storage;
  std::unique_ptr<qnn::obs::ObservedEnv> observed;
  std::unique_ptr<CountingEnv> counting;
  std::unique_ptr<qnn::tier::ShapedEnv> shaped;
  std::unique_ptr<qnn::io::PrefixEnv> hot;
  std::unique_ptr<qnn::io::PrefixEnv> cold;
  std::unique_ptr<qnn::tier::TieredEnv> tiered;
  qnn::io::Env* top = nullptr;
  std::string dir;  ///< checkpoint directory as `top` names it

  [[nodiscard]] std::uint64_t manifest_installs() const;
  [[nodiscard]] std::uint64_t wal_syncs() const;
};

struct LoopConfig {
  const Workload* workload = nullptr;
  const Pool* pool = nullptr;
  std::uint64_t seed = 0;
  /// Jobs live under this directory of their own RamEnv.
  std::string work_dir;
  /// No new job starts once this much wall time has passed...
  double seconds = 0.0;
  /// ...and the sample floors below are met (tail percentiles need ten
  /// samples beyond them). A hard cap ends the loop regardless.
  std::size_t min_steps = 0;
  std::size_t min_resumes = 0;
  /// 0 = no limit; otherwise run exactly this many jobs.
  std::size_t max_jobs = 0;
  /// 0 = the workload's steps_per_job (warm-up runs shorter jobs).
  std::uint64_t steps_per_job = 0;
  /// Job seeds are mix(seed, first_job + k), so the traced run replays
  /// the untraced run's jobs.
  std::uint64_t first_job = 0;
  /// Traced run: both non-null. Spans and metrics land here.
  qnn::obs::Tracer* tracer = nullptr;
  qnn::obs::MetricsRegistry* metrics = nullptr;
  /// Hand over the last job's storage (layer replay reads it).
  bool keep_last_job = false;
  /// Called after every job, outside every timed region.
  std::function<void()> after_job;
};

struct LoopResult {
  std::uint64_t jobs = 0;
  std::uint64_t steps = 0;    ///< recoverable steps handed over
  std::uint64_t resumes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons

  std::vector<double> stall_s;   ///< per step, in job order
  std::vector<double> resume_s;  ///< per resume, in job order
  /// stall_s.size() and resume_s.size() as each job ended.
  std::vector<std::size_t> job_stall_end;
  std::vector<std::size_t> job_resume_end;
  double ckpt_call_s = 0.0;      ///< inside checkpointer calls

  // Sums over all jobs; the end-to-end ratios are taken over these, so
  // every job weighs by its work.
  double cpu_s = 0.0;          ///< process CPU minus benchmark-side work
  double device_s = 0.0;       ///< ShapedEnv modeled device seconds
  double bytes_written = 0.0;  ///< bytes the Posix layer wrote
  double raw_handed = 0.0;     ///< raw state bytes handed over
  double resident_bytes = 0.0; ///< directory bytes at each job's end
  double retained_raw = 0.0;   ///< raw bytes of the retained checkpoints
  double resume_read = 0.0;    ///< bytes read by resumes
  double resume_raw = 0.0;     ///< raw bytes those resumes recovered

  // Layer counters, summed over every Checkpointer session.
  std::uint64_t checkpoints = 0;
  std::uint64_t chunk_refs = 0;
  std::uint64_t chunks_deduped = 0;
  std::uint64_t pack_bytes_written = 0;
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_encoded = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_compactions = 0;
  double submit_blocked_s = 0.0;
  double pipeline_encode_s = 0.0;
  std::uint64_t peak_encode_buffer_bytes = 0;
  std::uint64_t gc_files_deleted = 0;
  std::uint64_t cas_bytes_swept = 0;
  std::uint64_t cas_sweeps = 0;  ///< packs deleted + packs compacted
  std::uint64_t tier_files_demoted = 0;
  std::uint64_t tier_bytes_demoted = 0;
  std::uint64_t tier_fences = 0;
  std::uint64_t recovery_candidates = 0;
  std::uint64_t recovery_chain_depth = 0;
  std::uint64_t wal_records_replayed = 0;

  // Traced runs only.
  double wal_log_s = 0.0;
  std::uint64_t wal_log_calls = 0;
  std::uint64_t manifest_installs = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t resume_pread_ops = 0;
  std::uint64_t resume_pread_bytes = 0;

  std::string last_job_root;    ///< when keep_last_job
  std::unique_ptr<RamEnv> last_job_storage;
  std::uint64_t last_job_seed = 0;
  std::uint64_t last_job_steps = 0;
};

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job);

LoopResult run_loop(const LoopConfig& config);

/// Workload self-checks: a non-empty string names the first layer the
/// workload stopped exercising (or stopped bypassing).
std::string self_check(const Workload& w, const LoopResult& r);

}  // namespace qnnbench
