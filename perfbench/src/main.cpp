// letbench — letdma's closed-loop, single-client benchmark program.
//
//   letbench prefill --workload W --data DIR --journal PATH
//   letbench run --workload W --seed S --seconds N --trace 0|1
//                --data DIR --journal PATH --workdir DIR
//                [--records N] [--ops N] [--malformed-at I]
//
// `prefill` solves a serving workload's warm entries and the shared
// background set through a Service and leaves them in PATH's journal; it
// runs in its own process so that the measured process starts like a
// restarted daemon. `run` recovers a Service from a copy of that journal,
// replays the workload's request stream from one client thread (each
// request waits for the previous reply), checks every output and prints
// one JSON result as its last line. With --trace 1 it runs the stream
// twice on fresh Services, untraced and traced, and reports per-layer
// metrics instead of end-to-end ones.
//
// No operation ends on a clock: budgets sit far above the slowest
// operation, and any timeout, retry or demotion counts as a failed
// operation.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "letdma/engine/adapters.hpp"
#include "letdma/engine/incremental.hpp"
#include "letdma/engine/supervised.hpp"
#include "letdma/guard/certify.hpp"
#include "letdma/let/compiled.hpp"
#include "letdma/let/local_search.hpp"
#include "letdma/let/milp_scheduler.hpp"
#include "letdma/let/repair.hpp"
#include "letdma/let/schedule_io.hpp"
#include "letdma/model/canonical.hpp"
#include "letdma/model/diff.hpp"
#include "letdma/model/io.hpp"
#include "letdma/serve/journal.hpp"
#include "letdma/serve/service.hpp"
#include "letdma/serve/translate.hpp"
#include "letdma/support/error.hpp"
#include "spans.hpp"

#ifndef LETBENCH_BUILD_TYPE
#define LETBENCH_BUILD_TYPE "unknown"
#endif

using namespace letdma;
using perfbench::Scope;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- fixed configuration ----------------------------------------------------

/// Far above the slowest operation: no operation may end on a clock.
constexpr double kBudgetSec = 60.0;
/// Scaled-family solves in every serving journal besides the workload's
/// own warm entries.
constexpr int kBackground = 84;
/// Fixed seeds of the structures the workloads draw from: the background
/// set, the scaled instances, the WATERS edit script and the MILP
/// instances. The run seed only renumbers (tasks, labels, cores, names).
/// With structures drawn from the run seed, the cost of the instances
/// themselves dominated: p50 on miss-scaled spread by 31% (IQR/median)
/// over five seeds.
constexpr std::uint64_t kBackgroundSeed = 0x6261636b67726f75ull;
constexpr std::uint64_t kStructureSeed = 0x7374727563747572ull;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// At least ten samples beyond p90.
constexpr long kMinOps = 120;
constexpr engine::Objective kServeObjective =
    engine::Objective::kMinMaxLatencyRatio;
/// The ServiceOptions near-miss defaults, mirrored by the traced replay.
constexpr double kNearmissMaxDistance = 0.2;
constexpr int kNearmissScanLimit = 32;
/// OBJ-DMAT instances: at most six communications at s0, so every one
/// proves optimal far inside kBudgetSec at one branch-and-bound thread
/// (one more label puts multi-second solves into the tail).
constexpr perfbench::ScaledSpec kMilpSpec{2, 3, 2, true};

enum class Workload { kHitReplay, kWatersSession, kMissScaled, kMilpDmat };

struct WorkloadInfo {
  Workload id;
  const char* name;
  /// Nominal operations per second of --seconds on a 4-core x86 host. The
  /// operation count is fixed from the arguments (never from a clock), so
  /// the exact counters repeat from run to run.
  double nominal_rate;
  /// The count is rounded up to whole cycles of the stream (replay bases,
  /// session rounds, scaled-family ladder), so every run has the same mix.
  long cycle;
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::kHitReplay, "hit-replay", 5000.0, 12},
    {Workload::kWatersSession, "waters-session", 75.0, 4},
    {Workload::kMissScaled, "miss-scaled", 14.0, 14},
    {Workload::kMilpDmat, "milp-dmat", 3.0, 1},
};

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

/// The CPUs the process may run on, as it started (main reads this before
/// any CpuRotation pins the thread).
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Moves the one client thread across every allowed CPU, one slice of a
/// loop at a time. The CPUs of a shared virtual host run at speeds that
/// differ by about a third and change over minutes (a busy sibling
/// hyperthread): the same set-up took 0.9 ms on one CPU and 1.45 ms on
/// another at the same moment. A run confined to one CPU reports that
/// CPU's state, so whole runs disagree by that much; visiting every CPU
/// several times per loop averages the states within each run.
class CpuRotation {
 public:
  /// `count` iterations, each CPU visited `visits` times.
  CpuRotation(long count, long visits) {
    const long slices = visits * static_cast<long>(allowed_cpus().size());
    slice_ = std::max(1L, slices > 0 ? count / slices : count);
  }

  /// Call before iteration i.
  void at(long i) const {
    const std::vector<int>& cpus = allowed_cpus();
    if (cpus.size() < 2 || i % slice_ != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(i / slice_) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  long slice_ = 1;
};

/// Each CPU is visited this many times per pass over the operations.
constexpr long kVisitsPerPass = 4;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_value(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<perfbench::TextModel> replay;
  perfbench::TextModel waters;
};

Inputs load_inputs(const std::string& data) {
  Inputs in;
  for (int b = 0; b < 12; ++b) {
    char name[32];
    std::snprintf(name, sizeof name, "/replay/base%02d.app", b);
    in.replay.push_back(perfbench::parse_text_model(read_file(data + name)));
  }
  in.waters = perfbench::parse_text_model(read_file(data + "/waters.app"));
  return in;
}

std::vector<std::string> background_texts() {
  perfbench::Rng rng(kBackgroundSeed);
  std::vector<std::string> out;
  for (int b = 0; b < kBackground; ++b) {
    // The four smallest size classes, harmonic and non-harmonic.
    const int step = b % 4 + 7 * ((b / 4) % 2);
    out.push_back(
        perfbench::emit(perfbench::scaled_instance(
            perfbench::scaled_spec(step), rng)));
  }
  return out;
}

/// What a request must produce to count as served.
enum class Expect { kHit, kRepair, kCold, kReject };

struct Request {
  std::string text;
  Expect expect = Expect::kHit;
  /// Requests of one group must be served the same objective (isomorphic
  /// resubmissions of one model version).
  long group = -1;
};

/// A model that does not parse: the self-test's deliberately malformed
/// request.
const char* const kMalformedText =
    "# letdma application v1\n"
    "platform cores=2 odp_ns=3360 oisr_ns=10000 wc=1 cpu_wc=4 cpu_oh_ns=200\n"
    "task name=a period_ns=10000000 wcet_ns=1000000 core=0 priority=0\n"
    "label name=x bytes=64 writer=a readers=nobody\n";

/// The serving workloads' request streams, generated on the fly from the
/// seed and the frozen models (one request at a time, so the client holds
/// no stream in memory).
class RequestStream {
 public:
  RequestStream(Workload w, const Inputs& in, std::uint64_t seed)
      : workload_(w),
        in_(in),
        rng_(perfbench::derive_seed(seed, 1)),
        structure_(perfbench::derive_seed(kStructureSeed, 1)),
        current_(in.waters) {
    for (const perfbench::TextLabel& l : in.waters.labels) {
      base_bytes_.push_back(l.bytes);
    }
    seen_sizes_.insert(base_bytes_);
  }

  Request next(long i) {
    Request r;
    switch (workload_) {
      case Workload::kHitReplay: {
        const std::size_t b = static_cast<std::size_t>(i) % in_.replay.size();
        r.text = perfbench::emit(perfbench::renumber(in_.replay[b], rng_));
        r.expect = Expect::kHit;
        r.group = static_cast<long>(b);
        break;
      }
      case Workload::kWatersSession: {
        // Every fourth request edits one to three label sizes of the
        // session's current model; the others resubmit it renumbered.
        if (i % 4 == 3) {
          std::vector<std::int64_t> sizes;
          do {
            perfbench::edit_label_sizes(current_, base_bytes_, structure_);
            sizes.clear();
            for (const perfbench::TextLabel& l : current_.labels) {
              sizes.push_back(l.bytes);
            }
          } while (!seen_sizes_.insert(sizes).second);
          ++version_;
          r.expect = Expect::kRepair;
        } else {
          r.expect = Expect::kHit;
        }
        r.text = perfbench::emit(perfbench::renumber(current_, rng_));
        r.group = version_;
        break;
      }
      case Workload::kMissScaled: {
        const perfbench::ScaledSpec spec = perfbench::scaled_spec(
            static_cast<int>(i % perfbench::scaled_ladder_size()));
        r.text = perfbench::emit(perfbench::renumber(
            perfbench::scaled_instance(spec, structure_), rng_));
        r.expect = Expect::kCold;
        r.group = -1;
        break;
      }
      case Workload::kMilpDmat:
        break;
    }
    digest_.add(r.text);
    return r;
  }

  std::string digest() const { return digest_.hex(); }

 private:
  Workload workload_;
  const Inputs& in_;
  perfbench::Rng rng_;        // renumbering
  perfbench::Rng structure_;  // edits and scaled instances
  perfbench::TextModel current_;
  std::vector<std::int64_t> base_bytes_;
  std::set<std::vector<std::int64_t>> seen_sizes_;
  long version_ = 0;
  perfbench::Digest digest_;
};

// --- service ----------------------------------------------------------------

/// Everything the supervised chain reported through GuardOptions::on_complete.
struct SupervisionLog {
  long retries = 0;
  long demotions = 0;
  long certification_failures = 0;
};

engine::EngineTuning single_thread_tuning() {
  engine::EngineTuning t;
  t.milp_threads = 1;
  t.ls_threads = 1;
  return t;
}

engine::GuardOptions guard_options(SupervisionLog* log) {
  engine::GuardOptions g;
  g.objective = kServeObjective;
  // The cheap end of the chain, as serve_replay and incremental_repair
  // use: the daemon's milp-first default runs out its budget on OBJ-DEL.
  g.chain = {"ls", "greedy", "giotto"};
  g.tuning = single_thread_tuning();
  if (log != nullptr) {
    g.on_complete = [log](const engine::SupervisionRecord& r) {
      log->retries += r.retries;
      log->demotions += r.demotions;
      log->certification_failures += r.certification_failures;
    };
  }
  return g;
}

serve::ServiceOptions service_options(const std::string& journal,
                                      SupervisionLog* log) {
  serve::ServiceOptions o;
  // One shard: with a single client there is no lock contention to spread,
  // and the near-miss scan then sees the cache in true MRU order (with
  // several shards its first nearmiss_scan_limit entries are shard-ordered
  // and can miss the one candidate an edit needs).
  o.cache_shards = 1;
  o.default_policy.max_budget_sec = kBudgetSec;
  o.guard = guard_options(log);
  o.nearmiss_max_distance = kNearmissMaxDistance;
  o.nearmiss_scan_limit = kNearmissScanLimit;
  o.journal_path = journal;
  return o;
}

serve::Request make_request(long i, const std::string& text) {
  serve::Request r;
  r.id = std::to_string(i);
  r.model_text = text;
  r.objective = kServeObjective;
  r.budget_sec = kBudgetSec;
  return r;
}

// --- output checks -----------------------------------------------------------

struct Checker {
  long attempted = 0;
  long failed = 0;
  long hits = 0;
  long repairs = 0;
  long timeouts = 0;
  /// An output that claimed success but failed an independent check, or a
  /// malformed request that was served: the program is wrong.
  bool correct = true;
  std::map<long, double> group_objective;
  std::vector<double> log_objective;
  std::vector<std::string> first_failures;

  void fail(long i, const std::string& why) {
    ++failed;
    if (first_failures.size() < 5) {
      first_failures.push_back("op " + std::to_string(i) + ": " + why);
    }
  }
};

/// Re-reads the served schedule onto the requesting instance and certifies
/// it there, independently of the Service's own certificate.
bool verify_served(const std::string& text, const serve::Response& res,
                   std::string* why) {
  const auto app = model::read_application(text);
  const let::LetComms comms(*app);
  std::optional<let::ScheduleResult> schedule;
  try {
    schedule = let::read_schedule(comms, res.schedule_text);
  } catch (const support::Error& e) {
    *why = std::string("served schedule does not read back: ") + e.what();
    return false;
  }
  const guard::Certificate cert = guard::certify(comms, *schedule);
  if (!cert.certified()) {
    *why = "served schedule fails certification: " + cert.summary();
    return false;
  }
  const double obj = engine::objective_of(comms, *schedule, kServeObjective);
  if (!same_value(obj, res.objective_value)) {
    *why = "served objective " + std::to_string(res.objective_value) +
           " but the schedule's is " + std::to_string(obj);
    return false;
  }
  return true;
}

void check_response(long i, const Request& req, const serve::Response& res,
                    const SupervisionLog& before, const SupervisionLog& after,
                    Checker& c) {
  ++c.attempted;
  if (res.status == engine::Status::kTimeout && res.ok) ++c.timeouts;
  if (res.cache_hit) ++c.hits;
  if (res.near_miss) ++c.repairs;
  if (req.expect == Expect::kReject) {
    if (res.ok || res.error.empty() || !res.schedule_text.empty()) {
      c.correct = false;
      c.fail(i, "malformed request was served");
    } else {
      c.fail(i, "rejected as expected: " + res.error);
    }
    return;
  }
  if (!res.ok) return c.fail(i, "error: " + res.error);
  if (!res.certified || !res.has_schedule()) {
    return c.fail(i, "no certified schedule");
  }
  if (res.status != engine::Status::kFeasible &&
      res.status != engine::Status::kOptimal) {
    return c.fail(i, std::string("status ") + engine::status_name(res.status));
  }
  if (after.retries != before.retries || after.demotions != before.demotions ||
      after.certification_failures != before.certification_failures) {
    return c.fail(i, "supervised retry, demotion or certification failure");
  }
  switch (req.expect) {
    case Expect::kHit:
      if (!res.cache_hit) return c.fail(i, "expected a cache hit");
      break;
    case Expect::kRepair:
      if (res.cache_hit || !res.near_miss ||
          (res.strategy != "repair" && res.strategy != "warm")) {
        return c.fail(i, "expected a near-miss repair, got strategy " +
                             res.strategy);
      }
      break;
    case Expect::kCold:
      if (res.cache_hit || res.near_miss || res.strategy != "ls") {
        return c.fail(i, "expected a cold ls solve, got strategy " +
                             res.strategy);
      }
      break;
    case Expect::kReject:
      break;
  }
  // Every served schedule carries flags checked above; the independent
  // re-certification costs about three hits, so it runs on every solve and
  // on every fifth hit (which covers all twelve replay bases).
  std::string why;
  if ((req.expect != Expect::kHit || i % 5 == 0) &&
      !verify_served(req.text, res, &why)) {
    c.correct = false;
    return c.fail(i, why);
  }
  if (req.group >= 0) {
    const auto [it, fresh] =
        c.group_objective.emplace(req.group, res.objective_value);
    if (!fresh && !same_value(it->second, res.objective_value)) {
      c.correct = false;
      return c.fail(i, "isomorphic resubmission served another objective");
    }
  }
  c.log_objective.push_back(std::log(res.objective_value));
}

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double gmean(const std::vector<double>& logs) {
  if (logs.empty()) return 0.0;
  double s = 0.0;
  for (const double l : logs) s += l;
  return std::exp(s / static_cast<double>(logs.size()));
}

/// End-to-end metrics of one untraced pass.
struct Pass {
  std::vector<double> latency_ms;
  double window_sec = 0.0;  // sum of the operations' call-to-return times
  Checker checker;
};

std::vector<Metric> end_to_end(const Pass& p, double setup_s) {
  const double n = static_cast<double>(p.latency_ms.size());
  std::printf("perfbench: samples=%zu beyond_p90=%ld\n", p.latency_ms.size(),
              static_cast<long>(n - std::ceil(0.9 * n)));
  return {
      {"setup_s", setup_s, "s"},
      {"req_per_s", n / p.window_sec, "1/s"},
      {"p50_ms", quantile(p.latency_ms, 0.5), "ms"},
      {"p90_ms", quantile(p.latency_ms, 0.9), "ms"},
      {"objective_gmean", gmean(p.checker.log_objective), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

void report_checker(const Checker& c) {
  std::printf("perfbench: failed %ld / attempted %ld (hits %ld, repairs %ld, "
              "timeouts %ld)\n",
              c.failed, c.attempted, c.hits, c.repairs, c.timeouts);
  for (const std::string& f : c.first_failures) {
    std::printf("perfbench: %s\n", f.c_str());
  }
}

// --- per-layer aggregation ---------------------------------------------------

/// Counters the traced replay takes where the work happens.
struct LayerCounts {
  long distance_calls = 0;
  long ls_evals = 0;
  long journal_bytes = 0;
  long nodes = 0;
  long lp_iters = 0;
  long presolve_cuts = 0;
  std::vector<double> instants;
  std::vector<double> classes;
  long replay_mismatches = 0;
};

/// Per-name durations (µs) plus the self time of operations and engine
/// solves: a span's duration minus its children's. Children are the
/// layer calls the replay made for that span's work.
struct LayerTimes {
  std::map<std::string, std::vector<double>> us;
  std::map<std::string, double> total_us;
  std::vector<double> op_us;
  std::vector<double> op_self_us;
  std::vector<double> engine_self_us;
  double op_total_us = 0.0;

  explicit LayerTimes(const SpanRecorder& rec) {
    const std::vector<perfbench::Span>& spans = rec.spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const perfbench::Span& s : spans) {
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.us();
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& s = spans[i];
      us[s.name].push_back(s.us());
      total_us[s.name] += s.us();
      if (s.parent < 0) {
        op_us.push_back(s.us());
        op_total_us += s.us();
        op_self_us.push_back(s.us() - child_us[i]);
      }
      if (std::string(s.name) == "engine.solve") {
        engine_self_us.push_back(s.us() - child_us[i]);
      }
    }
  }

  double p50(const std::string& name) const {
    const auto it = us.find(name);
    return it == us.end() ? 0.0 : quantile(it->second, 0.5);
  }
  std::size_t calls(const std::string& name) const {
    const auto it = us.find(name);
    return it == us.end() ? 0 : it->second.size();
  }
  double share(const std::string& name) const {
    const auto it = total_us.find(name);
    return it == total_us.end() || op_total_us <= 0 ? 0.0
                                                    : it->second / op_total_us;
  }
};

/// Every per-layer metric with its unit, in BENCHMARK.json order. A
/// workload that does not reach a layer reports 0 for its metrics.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"model.parse_us", "us"},          {"model.canonicalize_us", "us"},
    {"model.nearmiss_scan_us", "us"},  {"model.distance_calls", "count"},
    {"model.diff_us", "us"},           {"let.comms_us", "us"},
    {"let.instants", "count"},         {"let.classes", "count"},
    {"let.compile_us", "us"},          {"let.greedy_us", "us"},
    {"let.ls_us", "us"},               {"let.ls_evals", "count"},
    {"let.ls_evals_per_s", "1/s"},     {"let.milp_build_us", "us"},
    {"milp.solve_ms", "ms"},           {"milp.nodes", "count"},
    {"milp.lp_iters", "count"},        {"milp.presolve_cuts", "count"},
    {"milp.lp_iters_per_node", "ratio"}, {"milp.nodes_per_s", "1/s"},
    {"engine.solve_ms", "ms"},         {"engine.self_ms", "ms"},
    {"engine.retries", "count"},       {"engine.demotions", "count"},
    {"engine.timeouts", "count"},      {"engine.repair_share", "ratio"},
    {"guard.certify_us", "us"},        {"serve.lookup_us", "us"},
    {"serve.hit_rate", "ratio"},       {"serve.translate_us", "us"},
    {"serve.insert_us", "us"},         {"serve.journal_append_us", "us"},
    {"serve.journal_bytes", "bytes"},  {"serve.recovery_ms", "ms"},
    {"serve.records_recovered", "count"}, {"serve.self_us", "us"},
    {"obs.trace_overhead", "ratio"},
};

/// Prints each span name's call count, p50 and share of operation time,
/// then the result line with every per-layer metric.
void print_layer_result(bool correct, const Checker& c, const LayerTimes& t,
                        const std::map<std::string, double>& values) {
  for (const auto& [name, durations] : t.us) {
    std::printf("perfbench: layer %-22s calls %8zu  p50 %10.2f us  share "
                "%6.2f%%\n",
                name.c_str(), durations.size(), t.p50(name),
                100.0 * t.share(name));
  }
  std::vector<Metric> m;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    m.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  print_result(correct, c.attempted, c.failed, m);
}

// --- traced replay of a serving request --------------------------------------

/// The replay's own cache and journal: the steps Service::handle performs,
/// re-executed by calling the same public functions, must not touch the
/// measured Service's state.
struct Shadow {
  serve::SolveCache cache{1024, 1};
  std::unique_ptr<serve::Journal> journal;
};

/// The recovery Service performs, replayed into the shadow cache.
void load_shadow(Shadow& sh, const std::string& journal_copy,
                 const std::string& shadow_journal) {
  serve::JournalStats stats;
  const std::vector<serve::JournalRecord> records =
      serve::Journal(journal_copy).load(&stats);
  for (const serve::JournalRecord& rec : records) {
    auto app = model::read_application(rec.canonical_text);
    const model::Canonicalization canon = model::canonicalize(*app);
    auto comms = std::make_unique<let::LetComms>(*app);
    let::ScheduleResult schedule =
        let::read_schedule(*comms, rec.schedule_text);
    const double objective =
        engine::objective_of(*comms, schedule, rec.objective);
    sh.cache.insert(serve::CacheKey{canon.fingerprint, rec.objective},
                    std::make_shared<serve::CachedSolve>(serve::CachedSolve{
                        std::move(app), std::move(comms), std::move(schedule),
                        rec.status, objective, rec.strategy}));
  }
  std::filesystem::remove(shadow_journal);
  sh.journal = std::make_unique<serve::Journal>(shadow_journal);
}

let::LocalSearchOptions search_options() {
  let::LocalSearchOptions ls;
  ls.goal = let::LocalSearchGoal::kMinMaxLatencyRatio;
  ls.threads = 1;
  ls.time_limit_sec = kBudgetSec;
  return ls;
}

/// The internals of the engine solve Service::handle ran for a miss:
/// CompiledComms, then greedy + local search (cold) or the warm-start
/// repair (near miss), then the outcome's certificate. Returns the
/// replayed schedule's objective.
double replay_engine_internals(const let::LetComms& comms,
                               const serve::CachedSolve* near,
                               const model::ApplicationDiff* diff,
                               SpanRecorder& rec, int parent, long op,
                               LayerCounts& n) {
  std::optional<let::CompiledComms> compiled;
  {
    Scope s(rec, "let.compile", parent, op);
    compiled.emplace(comms);
  }
  std::optional<let::ScheduleResult> served;
  if (near != nullptr) {
    Scope s(rec, "let.ls", parent, op);
    const let::RepairResult r =
        let::repair(*compiled, near->schedule, diff, search_options());
    n.ls_evals += r.result.evaluations;
    served = r.result.schedule;
  } else {
    std::optional<let::ScheduleResult> seed;
    double seed_obj = 0.0;
    {
      Scope s(rec, "let.greedy", parent, op);
      std::vector<let::ScheduleResult> candidates;
      candidates.push_back(let::GreedyScheduler::best_latency_ratio(comms));
      for (const let::GreedyStrategy g :
           {let::GreedyStrategy::kUrgencyFirst,
            let::GreedyStrategy::kWriteBatched,
            let::GreedyStrategy::kReadBatched}) {
        candidates.push_back(let::GreedyScheduler(comms, {g}).build());
      }
      for (let::ScheduleResult& cand : candidates) {
        if (!engine::schedule_valid(comms, cand)) continue;
        const double obj = engine::objective_of(comms, cand, kServeObjective);
        if (!seed || obj < seed_obj) {
          seed = std::move(cand);
          seed_obj = obj;
        }
      }
    }
    if (!seed) return -1.0;
    Scope s(rec, "let.ls", parent, op);
    let::LocalSearchResult improved =
        let::improve_schedule(*compiled, *seed, search_options());
    n.ls_evals += improved.evaluations;
    served = engine::objective_of(comms, improved.schedule, kServeObjective) <
                     seed_obj
                 ? std::move(improved.schedule)
                 : std::move(*seed);
  }
  {
    Scope s(rec, "guard.certify", parent, op);
    (void)guard::certify(comms, *served);
  }
  return engine::objective_of(comms, *served, kServeObjective);
}

/// Replays Service::handle's steps for one request: parse -> canonicalize
/// -> LetComms -> lookup -> [scan -> diff -> engine solve -> insert] ->
/// translate -> certify -> [journal append].
void replay_request(const std::string& text, Shadow& sh, SpanRecorder& rec,
                    int parent, long op, LayerCounts& n,
                    std::map<std::string, int>& classes_by_fingerprint) {
  std::unique_ptr<model::Application> app;
  {
    Scope s(rec, "model.parse", parent, op);
    try {
      app = model::read_application(text);
    } catch (const support::Error&) {
      return;  // the malformed request ends here, as in handle()
    }
  }
  model::Canonicalization canon;
  {
    Scope s(rec, "model.canonicalize", parent, op);
    canon = model::canonicalize(*app);
  }
  std::optional<let::LetComms> target;
  {
    Scope s(rec, "let.comms", parent, op);
    target.emplace(*app);
  }
  n.instants.push_back(static_cast<double>(target->required_instants().size()));
  // Instant classes of the requesting instance, counted once per
  // structure outside any span (a hit builds no CompiledComms).
  const auto [cls, fresh] =
      classes_by_fingerprint.try_emplace(canon.fingerprint.to_hex(), 0);
  if (fresh) cls->second = let::CompiledComms(*target).num_classes();
  n.classes.push_back(cls->second);
  const serve::CacheKey key{canon.fingerprint, kServeObjective};
  std::shared_ptr<const serve::CachedSolve> entry;
  {
    Scope s(rec, "serve.lookup", parent, op);
    entry = sh.cache.lookup(key);
  }
  const bool hit = entry != nullptr;
  if (!hit) {
    std::shared_ptr<const serve::CachedSolve> near;
    {
      Scope s(rec, "model.nearmiss_scan", parent, op);
      double best = kNearmissMaxDistance;
      int scanned = 0;
      for (const auto& [cand_key, cand] : sh.cache.snapshot()) {
        if (cand_key.objective != kServeObjective) continue;
        if (++scanned > kNearmissScanLimit) break;
        ++n.distance_calls;
        try {
          const double d = model::canonical_distance(*cand->app, *canon.app);
          if (d <= best) {
            best = d;
            near = cand;
          }
        } catch (const support::Error&) {
        }
      }
    }
    std::optional<model::ApplicationDiff> diff;
    if (near) {
      Scope s(rec, "model.diff", parent, op);
      diff = model::diff(*near->app, *canon.app);
    }
    std::unique_ptr<let::LetComms> canonical_comms;
    {
      Scope s(rec, "let.comms", parent, op);
      canonical_comms = std::make_unique<let::LetComms>(*canon.app);
    }
    engine::ScheduleOutcome outcome;
    const int es = rec.begin("engine.solve", parent, op);
    {
      engine::SharedIncumbent sink;
      engine::Budget budget;
      budget.wall_sec = kBudgetSec;
      if (near) {
        engine::IncrementalOptions iopt;
        iopt.objective = kServeObjective;
        iopt.guard = guard_options(nullptr);
        engine::IncrementalScheduler scheduler(iopt);
        engine::WarmStart warm;
        warm.schedule = &near->schedule;
        warm.diff = &*diff;
        outcome = scheduler.solve(*canonical_comms, budget, sink, warm);
      } else {
        engine::SupervisedScheduler scheduler(guard_options(nullptr));
        outcome = scheduler.solve(*canonical_comms, budget, sink);
      }
    }
    rec.end(es);
    const double replayed = replay_engine_internals(
        *canonical_comms, near.get(), diff ? &*diff : nullptr, rec, es, op, n);
    if (!outcome.schedule || !same_value(replayed, outcome.objective)) {
      ++n.replay_mismatches;
      return;
    }
    auto fresh = std::make_shared<serve::CachedSolve>(serve::CachedSolve{
        std::move(canon.app), std::move(canonical_comms), *outcome.schedule,
        outcome.status, outcome.objective, outcome.strategy});
    {
      Scope s(rec, "serve.insert", parent, op);
      sh.cache.insert(key, fresh);
    }
    entry = fresh;
  }
  std::optional<let::ScheduleResult> translated;
  {
    Scope s(rec, "serve.translate", parent, op);
    translated = serve::translate_schedule(entry->schedule, canon, *target);
  }
  {
    Scope s(rec, "guard.certify", parent, op);
    (void)guard::certify(*target, *translated);
  }
  if (!hit) {
    Scope s(rec, "serve.journal_append", parent, op);
    serve::JournalRecord jr;
    jr.canonical_text = canon.text;
    jr.objective = kServeObjective;
    jr.status = entry->status;
    jr.objective_value = entry->objective_value;
    jr.strategy = entry->strategy;
    jr.schedule_text = let::write_schedule(*entry->app, entry->schedule);
    n.journal_bytes += static_cast<long>(serve::encode_record(jr).size());
    sh.journal->append(jr);
  }
}

// --- modes -------------------------------------------------------------------

struct Args {
  std::string mode;
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data;
  std::string journal;
  std::string workdir;
  long records = -1;
  long ops = -1;
  long malformed_at = -1;
};

int usage() {
  std::fprintf(stderr,
               "usage: letbench prefill --workload W --data DIR --journal P\n"
               "       letbench run --workload W --seed S --seconds N "
               "--trace 0|1 --data DIR\n"
               "                --journal P --workdir DIR [--records N] "
               "[--ops N] [--malformed-at I]\n");
  return 2;
}

int prefill(const Args& a) {
  const Inputs in = load_inputs(a.data);
  std::vector<std::string> texts;
  switch (a.workload->id) {
    case Workload::kHitReplay:
      for (const perfbench::TextModel& m : in.replay) {
        texts.push_back(perfbench::emit(m));
      }
      break;
    case Workload::kWatersSession:
      texts.push_back(perfbench::emit(in.waters));
      break;
    case Workload::kMissScaled:
      break;
    case Workload::kMilpDmat:
      std::fprintf(stderr, "letbench: milp-dmat has no journal\n");
      return 2;
  }
  for (std::string& t : background_texts()) texts.push_back(std::move(t));
  std::filesystem::remove(a.journal);
  serve::Service service(service_options(a.journal, nullptr));
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const serve::Response res =
        service.handle(make_request(static_cast<long>(i), texts[i]));
    if (!res.ok || !res.certified || res.cache_hit) {
      std::fprintf(stderr, "letbench: prefill request %zu not solved: %s\n",
                   i, res.error.c_str());
      return 1;
    }
  }
  std::printf("records %lld\n",
              static_cast<long long>(service.stats().journal.appended));
  return 0;
}

/// One restart of the Service from a fresh copy of the prefill journal.
/// Returns the restart time in seconds.
double restart(const Args& a, const std::string& copy, SupervisionLog* log,
               std::unique_ptr<serve::Service>& service, bool* recovered_ok) {
  service.reset();
  std::filesystem::copy_file(a.journal, copy,
                             std::filesystem::copy_options::overwrite_existing);
  const auto t0 = Clock::now();
  service = std::make_unique<serve::Service>(service_options(copy, log));
  const double s = seconds_since(t0);
  const serve::JournalStats js = service->stats().journal;
  if (js.recovered != a.records || js.dropped_corrupt != 0 ||
      js.dropped_uncertified != 0 || js.dropped_stale != 0) {
    std::printf("perfbench: recovered %lld of %ld records\n",
                static_cast<long long>(js.recovered), a.records);
    *recovered_ok = false;
  }
  return s;
}

long op_count(const Args& a) {
  if (a.ops > 0) return a.ops;
  const long n =
      std::max(kMinOps, std::lround(a.workload->nominal_rate * a.seconds));
  const long cycle = a.workload->cycle;
  return (n + cycle - 1) / cycle * cycle;
}

/// Operation i of a pass: the stream's next request (the k-th), or the
/// self-test's malformed request at --malformed-at.
Request request_at(long i, const Args& a, RequestStream& stream, long* k) {
  if (i == a.malformed_at) {
    Request r;
    r.text = kMalformedText;
    r.expect = Expect::kReject;
    return r;
  }
  return stream.next((*k)++);
}

Pass serving_pass(const Args& a, const Inputs& in, serve::Service& service,
                  SupervisionLog& log, std::string* digest) {
  Pass p;
  const long ops = op_count(a);
  RequestStream stream(a.workload->id, in, a.seed);
  const CpuRotation rotation(ops, kVisitsPerPass);
  for (long i = 0, k = 0; k < ops; ++i) {
    rotation.at(i);
    const Request req = request_at(i, a, stream, &k);
    const serve::Request r = make_request(i, req.text);
    const SupervisionLog before = log;
    const auto t0 = Clock::now();
    const serve::Response res = service.handle(r);
    const double s = seconds_since(t0);
    p.latency_ms.push_back(s * 1e3);
    p.window_sec += s;
    check_response(i, req, res, before, log, p.checker);
  }
  *digest = stream.digest();
  return p;
}

int run_serving(const Args& a) {
  const Inputs in = load_inputs(a.data);
  const std::string copy = a.workdir + "/measured.journal";
  SupervisionLog log;
  std::unique_ptr<serve::Service> service;
  bool recovered_ok = true;
  const CpuRotation setup_rotation(kSetups, kSetups);
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    setup_rotation.at(k);
    setups.push_back(restart(a, copy, &log, service, &recovered_ok));
  }
  const double setup_s = quantile(setups, 0.5);
  std::string digest;
  Pass untraced = serving_pass(a, in, *service, log, &digest);
  std::printf("perfbench: request-digest %s\n", digest.c_str());
  if (!a.trace) {
    report_checker(untraced.checker);
    const bool correct = untraced.checker.correct && recovered_ok &&
                         log.retries == 0 && log.demotions == 0;
    print_result(correct, untraced.checker.attempted, untraced.checker.failed,
                 end_to_end(untraced, setup_s));
    return 0;
  }

  // Traced pass: the same stream on a freshly restarted Service. Each
  // operation is the handle() call; the replay then re-executes its steps
  // through the same public functions against the shadow state.
  SupervisionLog traced_log;
  std::vector<double> recoveries;
  for (int k = 0; k < kSetups; ++k) {
    setup_rotation.at(k);
    recoveries.push_back(
        restart(a, copy, &traced_log, service, &recovered_ok) * 1e3);
  }
  Shadow shadow;
  const std::string shadow_copy = a.workdir + "/shadow-source.journal";
  std::filesystem::copy_file(a.journal, shadow_copy,
                             std::filesystem::copy_options::overwrite_existing);
  load_shadow(shadow, shadow_copy, a.workdir + "/shadow.journal");

  SpanRecorder rec;
  LayerCounts n;
  std::map<std::string, int> classes_by_fingerprint;
  Checker checker;
  const long ops = op_count(a);
  RequestStream stream(a.workload->id, in, a.seed);
  const CpuRotation rotation(ops, kVisitsPerPass);
  for (long i = 0, k = 0; k < ops; ++i) {
    rotation.at(i);
    const Request req = request_at(i, a, stream, &k);
    const serve::Request r = make_request(i, req.text);
    const SupervisionLog before = traced_log;
    const int op = rec.begin("op", -1, i);
    const serve::Response res = service->handle(r);
    rec.end(op);
    check_response(i, req, res, before, traced_log, checker);
    replay_request(req.text, shadow, rec, op, i, n, classes_by_fingerprint);
  }
  report_checker(checker);
  if (!rec.write_jsonl(a.workdir + "/spans.jsonl")) {
    std::printf("perfbench: cannot write the span dump\n");
  }
  const LayerTimes t(rec);
  const double attempted = static_cast<double>(checker.attempted);
  const double ls_us = t.total_us.count("let.ls") ? t.total_us.at("let.ls") : 0;
  const double untraced_p50 = quantile(untraced.latency_ms, 0.5);
  const double traced_p50 = quantile(t.op_us, 0.5) / 1e3;
  const std::map<std::string, double> values = {
      {"model.parse_us", t.p50("model.parse")},
      {"model.canonicalize_us", t.p50("model.canonicalize")},
      {"model.nearmiss_scan_us", t.p50("model.nearmiss_scan")},
      {"model.distance_calls", static_cast<double>(n.distance_calls)},
      {"model.diff_us", t.p50("model.diff")},
      {"let.comms_us", t.p50("let.comms")},
      {"let.instants", quantile(n.instants, 0.5)},
      {"let.classes", quantile(n.classes, 0.5)},
      {"let.compile_us", t.p50("let.compile")},
      {"let.greedy_us", t.p50("let.greedy")},
      {"let.ls_us", t.p50("let.ls")},
      {"let.ls_evals", static_cast<double>(n.ls_evals)},
      {"let.ls_evals_per_s", ls_us > 0 ? n.ls_evals / (ls_us / 1e6) : 0.0},
      {"engine.solve_ms", t.p50("engine.solve") / 1e3},
      {"engine.self_ms", quantile(t.engine_self_us, 0.5) / 1e3},
      {"engine.retries", static_cast<double>(traced_log.retries)},
      {"engine.demotions", static_cast<double>(traced_log.demotions)},
      {"engine.timeouts", static_cast<double>(checker.timeouts)},
      {"engine.repair_share", checker.repairs / attempted},
      {"guard.certify_us", t.p50("guard.certify")},
      {"serve.lookup_us", t.p50("serve.lookup")},
      {"serve.hit_rate", checker.hits / attempted},
      {"serve.translate_us", t.p50("serve.translate")},
      {"serve.insert_us", t.p50("serve.insert")},
      {"serve.journal_append_us", t.p50("serve.journal_append")},
      {"serve.journal_bytes", static_cast<double>(n.journal_bytes)},
      {"serve.recovery_ms", quantile(recoveries, 0.5)},
      {"serve.records_recovered", static_cast<double>(a.records)},
      {"serve.self_us", quantile(t.op_self_us, 0.5)},
      {"obs.trace_overhead", traced_p50 / untraced_p50},
  };
  if (n.replay_mismatches > 0) {
    std::printf("perfbench: %ld replayed solves differ from the Service's\n",
                n.replay_mismatches);
  }
  const bool correct = checker.correct && untraced.checker.correct &&
                       recovered_ok && n.replay_mismatches == 0 &&
                       traced_log.retries == 0 && traced_log.demotions == 0;
  print_layer_result(correct, checker, t, values);
  return 0;
}

// --- milp-dmat ---------------------------------------------------------------

struct MilpInstances {
  std::vector<std::unique_ptr<model::Application>> apps;
  std::vector<std::unique_ptr<let::LetComms>> comms;
};

std::vector<std::string> milp_texts(std::uint64_t seed, long ops,
                                    std::string* digest) {
  perfbench::Rng structure(perfbench::derive_seed(kStructureSeed, 2));
  perfbench::Rng rng(perfbench::derive_seed(seed, 2));
  perfbench::Digest d;
  std::vector<std::string> out;
  for (long i = 0; i < ops; ++i) {
    out.push_back(perfbench::emit(perfbench::renumber(
        perfbench::scaled_instance(kMilpSpec, structure), rng)));
    d.add(out.back());
  }
  *digest = d.hex();
  return out;
}

MilpInstances load_milp(const std::vector<std::string>& texts) {
  MilpInstances m;
  for (const std::string& t : texts) {
    m.apps.push_back(model::read_application(t));
    m.comms.push_back(std::make_unique<let::LetComms>(*m.apps.back()));
  }
  return m;
}

/// The path `letdma_tool <app> milp dmat` takes: the engine's milp
/// scheduler with a private sink, pinned to one branch-and-bound thread.
/// Its grace wait for a cheap strategy's incumbent is part of the call.
engine::ScheduleOutcome milp_solve(engine::Scheduler& scheduler,
                                   const let::LetComms& comms) {
  engine::SharedIncumbent sink;
  engine::Budget budget;
  budget.wall_sec = kBudgetSec;
  return scheduler.solve(comms, budget, sink);
}

/// Independent checks of one OBJ-DMAT outcome: certified, objective
/// recomputed, and the proven optimum never above greedy or ls.
void check_milp(long i, const let::LetComms& comms,
                const engine::ScheduleOutcome& out, Checker& c) {
  ++c.attempted;
  if (out.status != engine::Status::kOptimal || !out.schedule) {
    return c.fail(i, std::string("status ") + engine::status_name(out.status));
  }
  if (!guard::certify(comms, *out.schedule).certified()) {
    c.correct = false;
    return c.fail(i, "optimal schedule fails certification");
  }
  const engine::Objective obj = engine::Objective::kMinTransfers;
  if (!same_value(engine::objective_of(comms, *out.schedule, obj),
                  out.objective)) {
    c.correct = false;
    return c.fail(i, "reported objective differs from the schedule's");
  }
  for (const char* name : {"greedy", "ls"}) {
    const auto other =
        engine::make_scheduler(name, obj, single_thread_tuning());
    engine::SharedIncumbent sink;
    engine::Budget budget;
    budget.wall_sec = kBudgetSec;
    const engine::ScheduleOutcome h = other->solve(comms, budget, sink);
    if (h.schedule && h.objective < out.objective - 1e-9) {
      c.correct = false;
      return c.fail(i, std::string("proven optimum above ") + name);
    }
  }
  c.log_objective.push_back(std::log(out.objective));
}

int run_milp(const Args& a) {
  const long ops = op_count(a);
  std::string digest;
  const std::vector<std::string> texts = milp_texts(a.seed, ops, &digest);
  std::printf("perfbench: request-digest %s\n", digest.c_str());
  const CpuRotation setup_rotation(kSetups, kSetups);
  std::vector<double> setups;
  MilpInstances inst;
  for (int k = 0; k < kSetups; ++k) {
    setup_rotation.at(k);
    inst = MilpInstances{};
    const auto t0 = Clock::now();
    inst = load_milp(texts);
    setups.push_back(seconds_since(t0));
  }
  const auto scheduler = engine::make_scheduler(
      "milp", engine::Objective::kMinTransfers, single_thread_tuning());

  Pass p;
  std::vector<engine::ScheduleOutcome> outcomes;
  const CpuRotation rotation(ops, kVisitsPerPass);
  for (long i = 0; i < ops; ++i) {
    rotation.at(i);
    const auto t0 = Clock::now();
    outcomes.push_back(
        milp_solve(*scheduler, *inst.comms[static_cast<std::size_t>(i)]));
    const double s = seconds_since(t0);
    p.latency_ms.push_back(s * 1e3);
    p.window_sec += s;
  }
  for (long i = 0; i < ops; ++i) {
    check_milp(i, *inst.comms[static_cast<std::size_t>(i)],
               outcomes[static_cast<std::size_t>(i)], p.checker);
  }
  if (!a.trace) {
    report_checker(p.checker);
    print_result(p.checker.correct, p.checker.attempted, p.checker.failed,
                 end_to_end(p, quantile(setups, 0.5)));
    return 0;
  }

  SpanRecorder rec;
  LayerCounts n;
  Checker checker;
  long mismatches = 0;
  long timeouts = 0;
  for (long i = 0; i < ops; ++i) {
    rotation.at(i);
    const let::LetComms& comms = *inst.comms[static_cast<std::size_t>(i)];
    const int op = rec.begin("engine.solve", -1, i);
    const engine::ScheduleOutcome out = milp_solve(*scheduler, comms);
    rec.end(op);
    if (out.status == engine::Status::kTimeout || out.cancelled) ++timeouts;
    check_milp(i, comms, out, checker);
    // The MilpEngine adapter's own steps: build the model, solve it.
    let::MilpSchedulerOptions opt;
    opt.objective = let::MilpObjective::kMinTransfers;
    opt.solver.threads = 1;
    opt.solver.time_limit_sec = kBudgetSec;
    opt.on_incumbent = [&](const let::ScheduleResult& s, double) {
      (void)engine::schedule_valid(comms, s);
    };
    std::optional<let::MilpScheduler> milp;
    {
      Scope s(rec, "let.milp_build", op, i);
      milp.emplace(comms, opt);
    }
    let::MilpScheduleResult r;
    {
      Scope s(rec, "milp.solve", op, i);
      r = milp->solve();
    }
    n.nodes += r.stats.nodes_explored;
    n.lp_iters += r.stats.lp_iterations;
    n.presolve_cuts += r.stats.presolve_cuts_added;
    if (!r.schedule || !same_value(engine::objective_of(
                                       comms, *r.schedule,
                                       engine::Objective::kMinTransfers),
                                   out.objective)) {
      ++mismatches;
    }
  }
  report_checker(checker);
  if (!rec.write_jsonl(a.workdir + "/spans.jsonl")) {
    std::printf("perfbench: cannot write the span dump\n");
  }
  const LayerTimes t(rec);
  const double solve_s =
      t.total_us.count("milp.solve") ? t.total_us.at("milp.solve") / 1e6 : 0;
  const std::map<std::string, double> values = {
      {"let.milp_build_us", t.p50("let.milp_build")},
      {"milp.solve_ms", t.p50("milp.solve") / 1e3},
      {"milp.nodes", static_cast<double>(n.nodes)},
      {"milp.lp_iters", static_cast<double>(n.lp_iters)},
      {"milp.presolve_cuts", static_cast<double>(n.presolve_cuts)},
      {"milp.lp_iters_per_node",
       n.nodes > 0 ? static_cast<double>(n.lp_iters) / n.nodes : 0.0},
      {"milp.nodes_per_s", solve_s > 0 ? n.nodes / solve_s : 0.0},
      {"engine.solve_ms", quantile(t.op_us, 0.5) / 1e3},
      {"engine.self_ms", quantile(t.op_self_us, 0.5) / 1e3},
      {"engine.timeouts", static_cast<double>(timeouts)},
      {"obs.trace_overhead",
       quantile(t.op_us, 0.5) / 1e3 / quantile(p.latency_ms, 0.5)},
  };
  if (mismatches > 0) {
    std::printf("perfbench: %ld replayed MILP solves differ from the "
                "engine's\n",
                mismatches);
  }
  print_layer_result(checker.correct && p.checker.correct && mismatches == 0,
                     checker, t, values);
  return 0;
}

bool parse_args(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = find_workload(v);
      if (a->workload == nullptr) return false;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stoi(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--data") {
      a->data = v;
    } else if (k == "--journal") {
      a->journal = v;
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--records") {
      a->records = std::stol(v);
    } else if (k == "--ops") {
      a->ops = std::stol(v);
    } else if (k == "--malformed-at") {
      a->malformed_at = std::stol(v);
    } else {
      return false;
    }
  }
  return a->workload != nullptr && !a->data.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Each of these changes what the program does or writes.
  for (const char* var : {"LETDMA_FAULTS", "LETDMA_FLIGHT_DUMP",
                          "LETDMA_METRICS", "LETDMA_SAMPLE_HZ"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "letbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  allowed_cpus();  // before any CpuRotation narrows the affinity
  Args a;
  try {
    if (!parse_args(argc, argv, &a)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  try {
    if (a.mode == "prefill") {
      if (a.journal.empty()) return usage();
      return prefill(a);
    }
    if (a.mode != "run" || a.workdir.empty()) return usage();
    std::printf("perfbench: workload=%s seed=%llu ops=%ld trace=%d "
                "build=%s tracing=%d faults=%d nproc=%d rotation_cpus=%zu\n",
                a.workload->name, static_cast<unsigned long long>(a.seed),
                op_count(a), a.trace ? 1 : 0, LETBENCH_BUILD_TYPE,
                LETDMA_OBS_ENABLED, LETDMA_FAULTS_ENABLED, nproc(),
                allowed_cpus().size());
    if (a.workload->id == Workload::kMilpDmat) return run_milp(a);
    if (a.journal.empty() || a.records < 0) return usage();
    return run_serving(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "letbench: %s\n", e.what());
    return 1;
  }
}
