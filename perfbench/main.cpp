// qnnbench — closed-loop checkpoint/resume benchmark for qnnckpt.
//
//   qnnbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR
//   qnnbench --print-config
//
// --trace 0 runs the untraced loop and prints the end-to-end metrics.
// --trace 1 runs a shorter untraced loop, the same jobs again with every
// sink attached (ObservedEnv, metrics registry, tracer, recovery tracer,
// benchmark-side spans), then replays each layer's public functions on
// the traced run's inputs, and prints the per-layer metrics; the Chrome
// trace lands in DIR/trace.json for run.py to validate and break down.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}), plus "trace" details in trace mode.
// Any failed operation, non-bit-exact resume or failed workload
// self-check makes the run exit 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "layer_replay.hpp"
#include "trainer_loop.hpp"
#include "workload.hpp"

namespace {

using namespace qnnbench;
using Clock = std::chrono::steady_clock;

constexpr int kMaxMmapThreshold = 32 << 20;  // glibc's ceiling on 64-bit
constexpr int kNeverTrim = 1 << 30;
constexpr std::size_t kMinSteps = 1000;   // ten beyond p99
constexpr std::size_t kMinResumes = 100;  // ten beyond p90

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir;
  bool print_config = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "qnnbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-config") {
      a.print_config = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = std::stoi(v);
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else {
      usage("unknown argument " + arg);
    }
  }
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Jobs are identical repetitions, so a percentile is taken per window of
/// consecutive whole jobs holding at least `floor` samples (ten beyond the
/// percentile) and the median across windows is reported, in ms: a host
/// stall that hits one window does not move it. `job_end` holds each
/// job's end offset into `samples_s`.
double windowed_percentile_ms(const std::vector<double>& samples_s,
                              const std::vector<std::size_t>& job_end,
                              std::size_t floor, double p) {
  std::vector<double> per_window;
  std::size_t begin = 0;
  for (std::size_t k = 0; k < job_end.size(); ++k) {
    const std::size_t end = job_end[k];
    const bool rest_fills_a_window = job_end.back() - end >= floor;
    if ((end - begin >= floor && rest_fills_a_window) ||
        k + 1 == job_end.size()) {
      std::vector<double> window_ms;
      for (std::size_t i = begin; i < end; ++i) {
        window_ms.push_back(1e3 * samples_s[i]);
      }
      per_window.push_back(percentile(std::move(window_ms), p));
      begin = end;
    }
  }
  return median(per_window);
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    os_ << (first_ ? "" : ",") << '"' << name << "\":{\"value\":" << buf
        << ",\"unit\":\"" << unit << "\"}";
    first_ = false;
  }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    out += os_.str();
    out += '}';
    return out;
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

/// Operations attempted and failed across every loop of a run, and
/// whether every workload self-check passed.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;

  /// Adds one loop, printing its failures (and, with `self_checks`, the
  /// self-check verdict) to stderr.
  void add(const Workload& w, const LoopResult& r, const char* label,
           bool self_checks) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "FAIL [%s] %s\n", label, f.c_str());
    }
    const std::string check = self_checks ? self_check(w, r) : "";
    if (!check.empty()) {
      std::fprintf(stderr, "FAIL [%s] self-check: %s\n", label, check.c_str());
      checks_passed = false;
    }
  }
  [[nodiscard]] bool ok() const { return failed == 0 && checks_passed; }

  /// The result line; the process exits with ok() ? 0 : 1.
  int print(const MetricsJson& m, const std::string& extra = "") const {
    std::printf(
        "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"metrics\":%s%s}\n",
        ok() ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), m.str().c_str(),
        extra.c_str());
    std::fflush(stdout);
    return ok() ? 0 : 1;
  }
};

void add_end_to_end(MetricsJson& m, const LoopResult& r, double setup_s,
                    const Verdict& v) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto stall = [&](double p) {
    return windowed_percentile_ms(r.stall_s, r.job_stall_end, kMinSteps, p);
  };
  const auto resume = [&](double p) {
    return windowed_percentile_ms(r.resume_s, r.job_resume_end, kMinResumes,
                                  p);
  };
  const double steps = static_cast<double>(r.steps);
  m.add("steps_per_s", per(steps, r.ckpt_call_s), "1/s");
  m.add("stall_ms_p50", stall(50), "ms");
  m.add("stall_ms_p99", stall(99), "ms");
  m.add("resume_ms_p50", resume(50), "ms");
  m.add("resume_ms_p90", resume(90), "ms");
  m.add("cpu_ms_per_step", per(1e3 * r.cpu_s, steps), "ms");
  m.add("write_amp", per(r.bytes_written, r.raw_handed), "ratio");
  m.add("space_amp", per(r.resident_bytes, r.retained_raw), "ratio");
  m.add("read_amp", per(r.resume_read, r.resume_raw), "ratio");
  m.add("device_ms_per_step", per(1e3 * r.device_s, steps), "ms");
  m.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  m.add("setup_s", setup_s, "s");
  m.add("ops_ok_share",
        per(static_cast<double>(v.attempted - v.failed),
            static_cast<double>(v.attempted)),
        "ratio");
}

void add_per_layer(MetricsJson& m, const LoopResult& t,
                   const LoopResult& u, qnn::obs::MetricsRegistry& reg,
                   std::size_t inline_per_ckpt,
                   const std::vector<std::pair<std::string, double>>& replay) {
  const double steps = static_cast<double>(t.steps);
  const double ckpts = static_cast<double>(t.checkpoints);
  const double resumes = static_cast<double>(t.resumes);
  const auto ops = [&](const char* c) {
    return static_cast<double>(reg.counter(std::string("io.") + c + ".ops").value());
  };
  const auto bytes = [&](const char* c) {
    return static_cast<double>(
        reg.counter(std::string("io.") + c + ".bytes").value());
  };
  const auto busy_us = [&](const std::string& hist) {
    return static_cast<double>(reg.histogram(hist).sum_us());
  };
  // io (ObservedEnv over the real syscalls)
  m.add("io.install.ops_per_step", per(ops("install"), steps), "count");
  m.add("io.install.us_per_step", per(busy_us("io.install.latency_us"), steps), "us");
  m.add("io.append.bytes_per_step", per(bytes("append"), steps), "B");
  m.add("io.append.us_per_step", per(busy_us("io.append.latency_us"), steps), "us");
  m.add("io.sync.ops_per_step", per(ops("sync"), steps), "count");
  // A durable PosixEnv fsyncs the file and its directory per install.
  m.add("io.flushes_per_step", per(ops("sync") + 2 * ops("install"), steps), "count");
  m.add("io.remove.ops_per_step", per(ops("remove"), steps), "count");
  m.add("io.meta.ops_per_step", per(ops("meta"), steps), "count");
  m.add("io.pread.ops_per_resume",
        per(static_cast<double>(t.resume_pread_ops), resumes), "count");
  m.add("io.pread.bytes_per_resume",
        per(static_cast<double>(t.resume_pread_bytes), resumes), "B");
  // ckpt.checkpointer stage histograms
  m.add("ckpt.snapshot.us_per_ckpt", per(busy_us("ckpt.snapshot"), ckpts), "us");
  m.add("ckpt.encode.us_per_ckpt", per(busy_us("ckpt.encode"), ckpts), "us");
  m.add("ckpt.install.us_per_ckpt", per(busy_us("ckpt.install"), ckpts), "us");
  // ckpt.async_writer
  m.add("ckpt.submit_blocked.ms_per_ckpt", per(1e3 * t.submit_blocked_s, ckpts), "ms");
  m.add("ckpt.pipeline_encode.ms_per_ckpt", per(1e3 * t.pipeline_encode_s, ckpts), "ms");
  m.add("ckpt.peak_encode_buffer_bytes",
        static_cast<double>(t.peak_encode_buffer_bytes), "B");
  // codec calls: one per inline section, one per chunk not deduplicated.
  m.add("codec.calls_per_ckpt",
        static_cast<double>(inline_per_ckpt) +
            per(static_cast<double>(t.chunk_refs - t.chunks_deduped), ckpts),
        "count");
  // ckpt.cas
  m.add("cas.probes_per_ckpt", per(static_cast<double>(t.chunk_refs), ckpts), "count");
  m.add("cas.dedup_hit_ratio",
        per(static_cast<double>(t.chunks_deduped), static_cast<double>(t.chunk_refs)),
        "ratio");
  m.add("cas.pack_bytes_per_ckpt",
        per(static_cast<double>(t.pack_bytes_written), ckpts), "B");
  m.add("cas.bytes_swept_per_ckpt",
        per(static_cast<double>(t.cas_bytes_swept), ckpts), "B");
  // ckpt.manifest / ckpt.store
  m.add("manifest.saves_per_ckpt",
        per(static_cast<double>(t.manifest_installs), ckpts), "count");
  m.add("gc.files_deleted_per_ckpt",
        per(static_cast<double>(t.gc_files_deleted), ckpts), "count");
  // tier
  m.add("tier.bytes_demoted_per_ckpt",
        per(static_cast<double>(t.tier_bytes_demoted), ckpts), "B");
  m.add("tier.fences_per_ckpt", per(static_cast<double>(t.tier_fences), ckpts), "count");
  // ckpt.wal
  m.add("wal.bytes_per_record",
        per(static_cast<double>(t.wal_bytes), static_cast<double>(t.wal_records)), "B");
  m.add("wal.log_us_per_step", per(1e6 * t.wal_log_s, steps), "us");
  m.add("wal.syncs_per_step", per(static_cast<double>(t.wal_syncs), steps), "count");
  m.add("wal.compactions_per_step",
        per(static_cast<double>(t.wal_compactions), steps), "count");
  m.add("wal.records_replayed_per_resume",
        per(static_cast<double>(t.wal_records_replayed), resumes), "count");
  // ckpt.recovery (flight recorder)
  m.add("recovery.candidates_per_resume",
        per(static_cast<double>(t.recovery_candidates), resumes), "count");
  m.add("recovery.chain_depth",
        per(static_cast<double>(t.recovery_chain_depth), resumes), "count");
  // Direct layer replay.
  static const std::map<std::string, std::string> kReplayUnits = {
      {"state_codec.us_per_ckpt", "us"},   {"crc.crc32c_mb_per_s", "MB/s"},
      {"codec.lz.encode_mb_per_s", "MB/s"}, {"codec.lz.decode_mb_per_s", "MB/s"},
      {"codec.ratio", "ratio"},            {"codec.xor_delta_mb_per_s", "MB/s"},
      {"format.encode_us_per_ckpt", "us"}, {"format.decode_us_per_resume", "us"},
      {"manifest.save_us", "us"},          {"manifest.load_us", "us"},
      {"cas.probes_per_s.1t", "1/s"},      {"cas.probes_per_s.2t", "1/s"},
      {"cas.open_us", "us"},               {"cas.get_us_per_chunk", "us"},
      {"cas.pack_handle_evictions", "count"}, {"wal.log_step_us", "us"},
      {"wal.replay_wal_us", "us"}};
  for (const auto& [name, value] : replay) {
    m.add(name, value, kReplayUnits.at(name));
  }
  // benchmark
  const double traced = per(steps, t.ckpt_call_s);
  const double untraced = per(static_cast<double>(u.steps), u.ckpt_call_s);
  m.add("trace.overhead_share", untraced > 0.0 ? 1.0 - traced / untraced : 0.0,
        "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the heap for reuse: otherwise every multi-MiB
  // buffer a step allocates (state copies, journals, packs) is a fresh
  // mmap whose pages fault in one by one, and on a shared VM the host's
  // page-fault path sets the stall (measurements in design.json). Jobs
  // repeat, so after the first one every buffer size has been seen.
  if (mallopt(M_MMAP_THRESHOLD, kMaxMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kNeverTrim) != 1) {
    std::fprintf(stderr, "qnnbench: mallopt failed\n");
    return 2;
  }
  const Args args = parse(argc, argv);
  if (args.print_config) {
    std::printf("{");
    for (std::size_t i = 0; i < workloads().size(); ++i) {
      const Workload& w = workloads()[i];
      std::printf("%s\"%s\":%s", i == 0 ? "" : ",", w.name.c_str(),
                  config_json(w).c_str());
    }
    std::printf("}\n");
    return 0;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");
  if (args.work_dir.empty()) usage("--work-dir is required");
  if (args.trace != 0 && args.trace != 1) usage("--trace takes 0 or 1");
  namespace fs = std::filesystem;

  // Set-up: the state pool and the first state. It is timed before the
  // first job and again in the untimed gap after every job, and the
  // median is reported, so setup_s samples the host over the whole run
  // like every other metric rather than in the first milliseconds of the
  // process. The pool's pages are allocated and
  // touched once beforehand, so it times the generation, not the host's
  // page-fault path. Regenerating the pool leaves its contents unchanged.
  std::vector<double> setups;
  Pool pool(w->pool_words);
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    fill_pool(pool, args.seed);
    StateGenerator first(*w, pool, job_seed(args.seed, 0));
    setups.push_back(since(t0));
  };
  set_up();
  fs::create_directories(args.work_dir);

  LoopConfig base;
  base.workload = w;
  base.pool = &pool;
  base.seed = args.seed;
  base.work_dir = "jobs";

  // Warm-up: two restart cycles in a throwaway job (lazy pools, the
  // allocator's heap, first-touch allocations). Its timings are not
  // reported; its resumes are checked like every other.
  Verdict verdict;
  {
    LoopConfig warm = base;
    warm.max_jobs = 1;
    warm.steps_per_job = 2 * w->resume_every;
    warm.first_job = 1'000'000;
    verdict.add(*w, run_loop(warm), "warm-up", /*self_checks=*/false);
  }

  if (args.trace == 0) {
    LoopConfig c = base;
    c.seconds = args.seconds;
    c.min_steps = kMinSteps;
    c.min_resumes = kMinResumes;
    c.after_job = set_up;
    const LoopResult r = run_loop(c);
    verdict.add(*w, r, "untraced", /*self_checks=*/true);
    std::fprintf(stderr, "samples: jobs=%llu steps=%llu resumes=%llu\n",
                 static_cast<unsigned long long>(r.jobs),
                 static_cast<unsigned long long>(r.stall_s.size()),
                 static_cast<unsigned long long>(r.resume_s.size()));
    MetricsJson m;
    add_end_to_end(m, r, median(setups), verdict);
    return verdict.print(m);
  }

  // Trace mode: untraced reference, the same jobs traced, layer replay.
  LoopConfig uc = base;
  uc.seconds = std::max(1.0, args.seconds / 2);
  const LoopResult u = run_loop(uc);

  qnn::obs::MetricsRegistry registry;
  qnn::obs::Tracer tracer;
  LoopConfig tc = base;
  tc.max_jobs = u.jobs;
  tc.tracer = &tracer;
  tc.metrics = &registry;
  tc.keep_last_job = true;
  LoopResult t = run_loop(tc);
  const std::string trace_path = args.work_dir + "/trace.json";
  tracer.write(trace_path);

  ReplayInput in;
  in.workload = w;
  in.pool = &pool;
  in.job_root = t.last_job_root;
  in.job_storage = t.last_job_storage.get();
  in.job_seed = t.last_job_seed;
  in.last_step = t.last_job_steps;
  in.scratch_dir = "replay";
  in.seconds_per_layer = std::clamp(args.seconds / 100, 0.05, 0.2);
  const auto replay = replay_layers(in);

  StateGenerator sample(*w, pool, t.last_job_seed);
  const std::size_t inline_per_ckpt = inline_sections(*w, sample.current());

  verdict.add(*w, u, "untraced", /*self_checks=*/true);
  verdict.add(*w, t, "traced", /*self_checks=*/true);
  MetricsJson m;
  add_per_layer(m, t, u, registry, inline_per_ckpt, replay);
  std::ostringstream extra;
  extra << ",\"trace\":{\"file\":\"" << trace_path
        << "\",\"checkpoints\":" << t.checkpoints << ",\"steps\":" << t.steps
        << ",\"resumes\":" << t.resumes << "}";
  return verdict.print(m, extra.str());
}
