#include "trainer_loop.hpp"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>

#include "ckpt/checkpointer.hpp"
#include "ckpt/manifest.hpp"
#include "ckpt/recovery.hpp"
#include "tier/migration.hpp"

namespace qnnbench {

namespace ckpt = qnn::ckpt;
namespace fs = std::filesystem;
using qnn::qnn::TrainingState;

/// Counts, by file name, what the library asks the Env to do: atomic
/// installs of MANIFEST and syncs of delta journals. Names the library
/// keeps private (which file a sync belongs to) are only visible here.
class CountingEnv final : public qnn::io::ForwardingEnv {
 public:
  explicit CountingEnv(qnn::io::Env& base) : ForwardingEnv(base) {}

  std::unique_ptr<qnn::io::WritableFile> new_writable(
      const std::string& path, qnn::io::WriteMode mode) override {
    const std::string name = fs::path(path).filename().string();
    std::atomic<std::uint64_t>* on_close =
        mode == qnn::io::WriteMode::kAtomic && name == "MANIFEST"
            ? &manifest_installs_
            : nullptr;
    std::atomic<std::uint64_t>* on_sync =
        ckpt::parse_wal_file_name(name) ? &wal_syncs_ : nullptr;
    return std::make_unique<File>(base_.new_writable(path, mode), on_close,
                                  on_sync);
  }

  [[nodiscard]] std::uint64_t manifest_installs() const {
    return manifest_installs_.load();
  }
  [[nodiscard]] std::uint64_t wal_syncs() const { return wal_syncs_.load(); }

 private:
  class File final : public qnn::io::WritableFile {
   public:
    File(std::unique_ptr<qnn::io::WritableFile> base,
         std::atomic<std::uint64_t>* on_close,
         std::atomic<std::uint64_t>* on_sync)
        : base_(std::move(base)), on_close_(on_close), on_sync_(on_sync) {}
    void append(qnn::io::ByteSpan data) override { base_->append(data); }
    void sync() override {
      base_->sync();
      if (on_sync_ != nullptr) {
        ++*on_sync_;
      }
    }
    void close() override {
      base_->close();
      if (on_close_ != nullptr) {
        ++*on_close_;
      }
    }

   private:
    std::unique_ptr<qnn::io::WritableFile> base_;
    std::atomic<std::uint64_t>* on_close_;
    std::atomic<std::uint64_t>* on_sync_;
  };

  std::atomic<std::uint64_t> manifest_installs_{0};
  std::atomic<std::uint64_t> wal_syncs_{0};
};

EnvStack::EnvStack(const Workload& w, const std::string& root,
                   RamEnv& storage, qnn::obs::MetricsRegistry* metrics)
    : storage(storage) {
  qnn::io::Env* device = &storage;
  if (metrics != nullptr) {
    observed = std::make_unique<qnn::obs::ObservedEnv>(*device, *metrics);
    counting = std::make_unique<CountingEnv>(*observed);
    device = counting.get();
  }
  shaped = std::make_unique<qnn::tier::ShapedEnv>(
      *device, qnn::tier::local_nvme_shape());
  if (w.policy.tier.enabled()) {
    hot = std::make_unique<qnn::io::PrefixEnv>(*shaped, root + "/hot");
    cold = std::make_unique<qnn::io::PrefixEnv>(*shaped, root + "/cold");
    tiered = std::make_unique<qnn::tier::TieredEnv>(
        *hot, *cold, /*promote_on_read=*/false, qnn::tier::migratable_path);
    top = tiered.get();
    dir = "ckpt";
  } else {
    top = shaped.get();
    dir = root + "/ckpt";
  }
}

EnvStack::~EnvStack() = default;

std::uint64_t EnvStack::manifest_installs() const {
  return counting ? counting->manifest_installs() : 0;
}

std::uint64_t EnvStack::wal_syncs() const {
  return counting ? counting->wal_syncs() : 0;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Whatever the floors, no new job starts after this, so a run ends well
/// inside three minutes.
constexpr double kHardCapSeconds = 150.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Bit-exact comparison of every TrainingState field (doubles compared
/// by representation, not by value).
std::string state_mismatch(const TrainingState& got,
                           const TrainingState& want) {
  if (got.step != want.step) {
    return "step " + std::to_string(got.step) + " != " +
           std::to_string(want.step);
  }
  if (!same_bits(got.params, want.params)) return "params";
  if (got.optimizer_name != want.optimizer_name) return "optimizer_name";
  if (!same_bits(got.optimizer_state, want.optimizer_state)) {
    return "optimizer_state";
  }
  if (!same_bits(got.rng_state, want.rng_state)) return "rng_state";
  if (!same_bits(got.loss_history, want.loss_history)) return "loss_history";
  if (got.epoch != want.epoch) return "epoch";
  if (got.cursor != want.cursor) return "cursor";
  if (!same_bits(got.permutation, want.permutation)) return "permutation";
  if (!same_bits(got.simulator_state, want.simulator_state)) {
    return "simulator_state";
  }
  if (got.workload_tag != want.workload_tag) return "workload_tag";
  if (got.circuit_fingerprint != want.circuit_fingerprint) {
    return "circuit_fingerprint";
  }
  return {};
}

/// Bytes of every file in the checkpoint directory and its chunk store,
/// summed over all tiers (TieredEnv lists both).
std::uint64_t resident_bytes(EnvStack& stack) {
  std::uint64_t total = 0;
  for (const std::string& dir : {stack.dir, stack.dir + "/chunks"}) {
    for (const std::string& name : stack.top->list_dir(dir)) {
      total += stack.top->file_size(dir + "/" + name).value_or(0);
    }
  }
  return total;
}

std::uint64_t flight_value(const ckpt::FlightEvent& e, const char* key) {
  const std::string v = e.value(key);
  return v.empty() ? 0 : std::stoull(v);
}

/// One job: a fresh directory, steps 1..steps_per_job, a restart every
/// resume_every steps and after the last one.
class Job {
 public:
  Job(const LoopConfig& c, std::uint64_t index, LoopResult& r)
      : c_(c),
        w_(*c.workload),
        r_(r),
        root_(c.work_dir + "/job-" + std::to_string(index)),
        seed_(job_seed(c.seed, index)),
        gen_(w_, *c.pool, seed_),
        storage_(std::make_unique<RamEnv>()) {
    stack_ = std::make_unique<EnvStack>(w_, root_, *storage_, c.metrics);
    policy_ = w_.policy;
    policy_.metrics = c.metrics;
    policy_.tracer = c.tracer;
    recovery_.tracer = c.tracer;
  }

  void run(std::uint64_t steps) {
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::uint64_t written0 = stack_->storage.bytes_written();
    const double device0 = stack_->shaped->modeled_seconds();
    const std::uint64_t manifests0 = stack_->manifest_installs();
    const std::uint64_t wal_syncs0 = stack_->wal_syncs();
    ckpt_ = std::make_unique<ckpt::Checkpointer>(*stack_->top, stack_->dir,
                                                 policy_);
    for (std::uint64_t s = 1; s <= steps; ++s) {
      const double bench0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      const TrainingState& state = gen_.advance();
      raw_handed_ += gen_.raw_bytes_at(state.step);
      bench_cpu_ += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - bench0;
      step(state);
      if (s % w_.resume_every == 0 || s == steps) {
        restart();
      }
    }
    // The session opened by the last resume: count its startup work, then
    // close it outside every timed region.
    collect_session_stats();
    ckpt_.reset();
    const double cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0 -
                       bench_cpu_;

    const auto manifest = ckpt::Manifest::load(*stack_->top, stack_->dir);
    std::uint64_t retained_raw = 0;
    for (const ckpt::ManifestEntry& e : manifest.entries()) {
      retained_raw += gen_.raw_bytes_at(e.step);
    }
    r_.cpu_s += cpu;
    r_.device_s += stack_->shaped->modeled_seconds() - device0;
    r_.bytes_written +=
        static_cast<double>(stack_->storage.bytes_written() - written0);
    r_.raw_handed += static_cast<double>(raw_handed_);
    r_.resident_bytes += static_cast<double>(resident_bytes(*stack_));
    r_.retained_raw += static_cast<double>(retained_raw);
    r_.resume_read += static_cast<double>(resume_read_);
    r_.resume_raw += static_cast<double>(resume_raw_);
    r_.ckpt_call_s += call_s_;
    r_.manifest_installs += stack_->manifest_installs() - manifests0;
    r_.wal_syncs += stack_->wal_syncs() - wal_syncs0;
    r_.job_stall_end.push_back(r_.stall_s.size());
    r_.job_resume_end.push_back(r_.resume_s.size());
    ++r_.jobs;
  }

  void remove() {
    stack_.reset();
    storage_.reset();
  }

  /// Closes the job's Env stack and hands over its storage, files intact.
  std::unique_ptr<RamEnv> keep() {
    stack_.reset();
    return std::move(storage_);
  }

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  void fail(const std::string& why) {
    ++r_.failed;
    if (r_.failures.size() < 8) {
      r_.failures.push_back(w_.name + " step " + std::to_string(gen_.step()) +
                            ": " + why);
    }
  }

  void step(const TrainingState& state) {
    ++r_.attempted;
    bool installed = false;
    const auto t0 = Clock::now();
    try {
      qnn::obs::Span span(c_.tracer, "bench.maybe_checkpoint", "bench");
      installed = ckpt_->maybe_checkpoint(state);
    } catch (const std::exception& e) {
      fail(std::string("maybe_checkpoint threw: ") + e.what());
    }
    const double dt = since(t0);
    call_s_ += dt;
    r_.stall_s.push_back(dt);
    ++r_.steps;
    if (c_.tracer != nullptr && !installed && policy_.wal.enable) {
      r_.wal_log_s += dt;
      ++r_.wal_log_calls;
    }
  }

  void collect_session_stats() {
    const ckpt::Checkpointer::Stats s = ckpt_->stats();
    r_.checkpoints += s.checkpoints;
    r_.chunk_refs += s.chunk_refs;
    r_.chunks_deduped += s.chunks_deduped;
    r_.pack_bytes_written += s.pack_bytes_written;
    r_.bytes_raw += s.bytes_raw;
    r_.bytes_encoded += s.bytes_encoded;
    r_.wal_records += s.wal_records;
    r_.wal_bytes += s.wal_bytes;
    r_.wal_compactions += s.wal_compactions;
    r_.submit_blocked_s += s.submit_blocked_seconds;
    r_.pipeline_encode_s += s.pipeline_encode_seconds;
    r_.peak_encode_buffer_bytes =
        std::max(r_.peak_encode_buffer_bytes, s.peak_encode_buffer_bytes);
    const std::uint64_t lost = s.dropped_writes + s.writer_failures;
    for (std::uint64_t i = 0; i < lost; ++i) {
      fail("checkpoint dropped or failed in the pipeline");
    }
    const ckpt::GcStats gc = ckpt_->gc_stats();
    r_.gc_files_deleted += gc.files_deleted;
    const ckpt::CasStats cas = ckpt_->cas_stats();
    r_.cas_bytes_swept += cas.bytes_swept;
    r_.cas_sweeps += cas.packs_deleted + cas.packs_compacted;
    const qnn::tier::TierStats tier = ckpt_->tier_stats();
    r_.tier_files_demoted += tier.files_demoted;
    r_.tier_bytes_demoted += tier.bytes_demoted;
    r_.tier_fences += tier.fences;
  }

  void restart() {
    // Clean shutdown: flush, read the session's counters, destroy.
    auto t0 = Clock::now();
    try {
      qnn::obs::Span span(c_.tracer, "bench.shutdown", "bench");
      ckpt_->flush();
      collect_session_stats();
      ckpt_.reset();
    } catch (const std::exception& e) {
      fail(std::string("shutdown threw: ") + e.what());
      ckpt_.reset();
    }
    call_s_ += since(t0);

    // Resume: what a preempted job pays before its next step.
    ++r_.attempted;
    const std::uint64_t read0 = stack_->storage.bytes_read();
    const std::uint64_t pread_ops0 =
        c_.metrics ? c_.metrics->counter("io.pread.ops").value() : 0;
    const std::uint64_t pread_bytes0 =
        c_.metrics ? c_.metrics->counter("io.pread.bytes").value() : 0;
    std::optional<ckpt::RecoveryOutcome> outcome;
    t0 = Clock::now();
    try {
      {
        qnn::obs::Span span(c_.tracer, "bench.recover_latest", "bench");
        outcome = ckpt::recover_latest(*stack_->top, stack_->dir, recovery_);
      }
      qnn::obs::Span span(c_.tracer, "bench.open", "bench");
      ckpt_ = std::make_unique<ckpt::Checkpointer>(*stack_->top, stack_->dir,
                                                   policy_);
    } catch (const std::exception& e) {
      fail(std::string("resume threw: ") + e.what());
    }
    r_.resume_s.push_back(since(t0));
    ++r_.resumes;
    resume_read_ += stack_->storage.bytes_read() - read0;
    if (c_.metrics != nullptr) {
      r_.resume_pread_ops +=
          c_.metrics->counter("io.pread.ops").value() - pread_ops0;
      r_.resume_pread_bytes +=
          c_.metrics->counter("io.pread.bytes").value() - pread_bytes0;
    }
    if (!ckpt_) {
      ckpt_ = std::make_unique<ckpt::Checkpointer>(*stack_->top, stack_->dir,
                                                   policy_);
    }

    const double bench0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    if (!outcome) {
      fail("recover_latest returned nothing");
    } else {
      resume_raw_ += gen_.raw_bytes_at(outcome->step);
      for (const ckpt::FlightEvent& e : outcome->events) {
        if (e.name == "candidate.try") {
          ++r_.recovery_candidates;
        } else if (e.name == "chain.resolved") {
          r_.recovery_chain_depth += flight_value(e, "depth");
        } else if (e.name == "wal.replay") {
          r_.wal_records_replayed += flight_value(e, "records");
        }
      }
      const std::string bad = state_mismatch(outcome->state, gen_.current());
      if (!bad.empty()) {
        fail("resume is not bit-exact: " + bad);
      }
      if (outcome->step != gen_.step()) {
        gen_.seek(outcome->step);  // continue from what was recovered
      }
    }
    bench_cpu_ += cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - bench0;
  }

  const LoopConfig& c_;
  const Workload& w_;
  LoopResult& r_;
  const std::string root_;
  const std::uint64_t seed_;
  StateGenerator gen_;
  std::unique_ptr<RamEnv> storage_;
  std::unique_ptr<EnvStack> stack_;
  ckpt::CheckpointPolicy policy_;
  ckpt::RecoveryOptions recovery_;
  std::unique_ptr<ckpt::Checkpointer> ckpt_;

  double call_s_ = 0.0;        ///< inside checkpointer calls
  double bench_cpu_ = 0.0;     ///< trainer-thread CPU of generation + oracle
  std::uint64_t raw_handed_ = 0;
  std::uint64_t resume_read_ = 0;
  std::uint64_t resume_raw_ = 0;
};

}  // namespace

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job) {
  return mix64(mix64(seed) ^ (job + 1));
}

LoopResult run_loop(const LoopConfig& c) {
  LoopResult r;
  const std::uint64_t steps =
      c.steps_per_job != 0 ? c.steps_per_job : c.workload->steps_per_job;
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0;; ++k) {
    if (c.max_jobs != 0) {
      if (k >= c.max_jobs) break;
    } else if (k > 0) {
      const double elapsed = since(t0);
      const bool floors_met =
          r.steps >= c.min_steps && r.resumes >= c.min_resumes;
      if ((elapsed >= c.seconds && floors_met) ||
          elapsed >= kHardCapSeconds) {
        break;
      }
    }
    Job job(c, c.first_job + k, r);
    job.run(steps);
    const bool last = c.max_jobs != 0 && k + 1 == c.max_jobs;
    if (c.keep_last_job && last) {
      r.last_job_root = job.root();
      r.last_job_storage = job.keep();
      r.last_job_seed = job.seed();
      r.last_job_steps = steps;
    } else {
      job.remove();
    }
    if (c.after_job) {
      c.after_job();
    }
  }
  return r;
}

std::string self_check(const Workload& w, const LoopResult& r) {
  if (w.name == "bulk-async") {
    if (r.chunks_deduped == 0) return "bulk-async: no dedup hits";
    if (r.tier_files_demoted == 0) return "bulk-async: no tier demotions";
    if (r.cas_sweeps == 0 || r.gc_files_deleted == 0) {
      return "bulk-async: no GC sweeps";
    }
  } else if (w.name == "wal-journal") {
    if (r.wal_records_replayed == 0) return "wal-journal: no records replayed";
    if (r.wal_compactions == 0) return "wal-journal: no compaction";
  } else if (w.name == "params-sync") {
    if (r.chunk_refs != 0) return "params-sync: chunk refs appeared";
    if (r.wal_records != 0) return "params-sync: WAL records appeared";
    if (r.tier_files_demoted != 0) return "params-sync: tier demotions appeared";
  }
  return {};
}

}  // namespace qnnbench
