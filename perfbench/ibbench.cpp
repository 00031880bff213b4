// ibpower benchmark program.
//
// Runs one named workload through the simulator's public API, checks every
// simulated result against a reference digest (plus one tiny pass against
// the pinned digests of the default seed on every run), and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run). The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
// before it are a human-readable report, led by a provenance stamp.
//
//   ibpower_perfbench --workload paper_grid|policy_sweep|fabric_replay
//                     --seed N --seconds S --trace 0|1
//                     --digests FILE --workdir DIR [--size full|tiny]
//                     [--git-sha SHA] [--source-sha SHA]
//                     [--launch-ns NS] [--setup-samples S1,S2,...]
//   ibpower_perfbench --setup-only --launch-ns NS --workload W --seed N ...
//   ibpower_perfbench --print-reference --workload W --seed N [--size ...]
//
// Load shape: one process, at most nproc worker threads, closed batch. A
// pass submits all of its cells at once; the next pass starts only after the
// last result of the previous one has been checked. See README.md for the
// metric definitions and why each workload exists.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "digest.hpp"
#include "obs/exporters.hpp"
#include "obs/instrumented.hpp"
#include "obs/sched_export.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/parallel.hpp"
#include "sim/replay.hpp"
#include "spans.hpp"
#include "trace/trace_io.hpp"
#include "util/thread_pool.hpp"

namespace ibbench {
namespace {

namespace ib = ibpower;

const Clock::time_point kProcessStart = Clock::now();
/// The default seed; digests.txt pins it and the held-out seed 1009.
constexpr std::uint64_t kDefaultSeed = 42;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Highest whole percentile with at least ten samples above it, and its
/// value (nearest rank). Returns {0, 0} below 11 samples.
std::pair<int, double> tail_percentile(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 11) return {0, 0.0};
  std::sort(v.begin(), v.end());
  const int pct = static_cast<int>(100 * (n - 10) / n);
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return {pct, v[std::max<std::size_t>(rank, 1) - 1]};
}

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names and units; the
// self-test checks that they agree.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workloads.gen_ms", "ms"},
    {"workloads.traces_built", "count"},
    {"trace.write_ms", "ms"},
    {"trace.read_ms", "ms"},
    {"sim.engine_setup_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.baseline_leg_ms", "ms"},
    {"sim.managed_leg_ms", "ms"},
    {"sim.managed_extra_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.recvs_waited", "count"},
    {"sim.rendezvous_blocked", "count"},
    {"sim.shard_stall_ms", "ms"},
    {"sim.shard_boundary_ratio", "ratio"},
    {"sim.shard_speedup", "x"},
    {"sim.campaign_hit_ratio", "ratio"},
    {"sim.campaign_max_live_traces", "count"},
    {"sim.campaign_first_row_ms", "ms"},
    {"util.utilization", "ratio"},
    {"util.steals", "count"},
    {"util.idle_ms", "ms"},
    {"util.dep_wait_ms", "ms"},
    {"util.queue_wait_ms", "ms"},
    {"core.agent_ns_per_call", "ns"},
    {"core.calls", "count"},
    {"core.hit_rate_pct", "%"},
    {"core.wakes_per_request", "ratio"},
    {"network.contention_delta_ms", "ms"},
    {"network.hops", "count"},
    {"network.mode_changes", "count"},
    {"network.on_demand_wakes", "count"},
    {"host.delta_ms", "ms"},
    {"host.wakes", "count"},
    {"host.pstate_changes", "count"},
    {"obs.instrument_delta_ms", "ms"},
    {"obs.export_ms", "ms"},
    {"obs.export_mb", "MB"},
    {"self.bench_ms", "ms"},
    {"self.workloads_ms", "ms"},
    {"self.trace_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"self.obs_ms", "ms"},
    {"bench.trace_overhead_ms", "ms"},
    {"bench.closure_residual_pct", "%"},
    {"bench.spans", "count"},
};

using Values = std::map<std::string, double>;

/// Closure tolerance of the traced run: task spans plus idle time must
/// cover each worker's pass window to within this share.
constexpr double kClosureTolerancePct = 5.0;

// ---------------------------------------------------------------------------
// Workload interface

struct PassResult {
  double wall_s{0.0};
  double cpu_s{0.0};
  double first_row_s{0.0};  // policy_sweep only
  int attempted{0};
  int failed{0};
  Values layers;  // per-layer values of this pass (traced passes only)
};

/// One TaskEngine worker's share of a traced pass: task busy time plus the
/// engine's own idle counter, against the engine-epoch window.
struct ClosureRow {
  int pass{0};
  int worker{0};
  double window_ms{0.0};
  double busy_ms{0.0};
  double idle_ms{0.0};
  [[nodiscard]] double residual_ms() const {
    return window_ms - busy_ms - idle_ms;
  }
};

struct RunContext {
  SpanRecorder* rec{nullptr};
  std::vector<ClosureRow>* closure{nullptr};
  int pass{0};
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs; timed as setup_s.
  virtual void setup() = 0;
  /// Serial reference: 1 worker, 1 shard. One digest per checked result.
  virtual std::vector<std::uint64_t> reference() = 0;
  /// One closed-batch pass, checked against `expected`.
  virtual PassResult pass(RunContext& ctx,
                          const std::vector<std::uint64_t>& expected) = 0;
  /// One-off per-layer measurements of the traced run.
  virtual void probes(Values& out) = 0;
  [[nodiscard]] virtual unsigned workers() const = 0;
  /// Per-layer values measured during set-up.
  [[nodiscard]] virtual Values setup_layers() const { return {}; }
};

// --- shared helpers --------------------------------------------------------

bool is_leg_label(const std::string& label) {
  return label == "baseline" || label == "managed" ||
         label == "campaign-baseline" || label == "campaign-managed";
}

const char* layer_of_label(const std::string& label) {
  return label == "gen" || label == "campaign-gen" ? "workloads" : "sim";
}

/// Converts the engine's per-task profile of one traced pass into spans
/// under `parent`, and derives the util.* values and closure rows.
/// `cell_of[i]` is the workload cell of task i; `epoch_ns` is the engine
/// epoch on the recorder's clock and `window_ns` the pass window on the
/// engine's clock.
void absorb_profile(RunContext& ctx, const ib::SchedProfile& prof,
                    const std::vector<int>& cell_of, std::int64_t parent,
                    std::int64_t epoch_ns, std::int64_t window_ns,
                    Values& out) {
  std::vector<double> busy(prof.workers.size(), 0.0);
  double dep_wait = 0.0;
  double queue_wait = 0.0;
  for (std::size_t i = 0; i < prof.tasks.size(); ++i) {
    const ib::SchedTaskProfile& t = prof.tasks[i];
    const std::string label = t.label;
    Span s;
    s.parent = parent;
    s.cell = i < cell_of.size() ? cell_of[i] : -1;
    s.layer = layer_of_label(label);
    s.name = label;
    s.start_ns = epoch_ns + t.start_ns;
    s.end_ns = epoch_ns + t.finish_ns;
    s.worker = t.worker;
    ctx.rec->add(std::move(s));
    if (t.worker >= 0 && static_cast<std::size_t>(t.worker) < busy.size()) {
      busy[static_cast<std::size_t>(t.worker)] +=
          static_cast<double>(t.finish_ns - t.start_ns) / 1e6;
    }
    if (is_leg_label(label)) {
      dep_wait += static_cast<double>(t.ready_ns - t.submit_ns) / 1e6;
      queue_wait += static_cast<double>(t.start_ns - t.ready_ns) / 1e6;
    }
  }
  const ib::obs::SchedSummary sum = ib::obs::summarize_sched(prof, window_ns);
  double idle = 0.0;
  double worst = 0.0;
  for (std::size_t w = 0; w < prof.workers.size(); ++w) {
    ClosureRow row;
    row.pass = ctx.pass;
    row.worker = static_cast<int>(w);
    row.window_ms = static_cast<double>(window_ns) / 1e6;
    row.busy_ms = busy[w];
    row.idle_ms = static_cast<double>(prof.workers[w].idle_ns) / 1e6;
    idle += row.idle_ms;
    if (row.window_ms > 0.0) {
      worst = std::max(worst, 100.0 * std::fabs(row.residual_ms()) /
                                  row.window_ms);
    }
    ctx.closure->push_back(row);
  }
  out["util.utilization"] = sum.utilization;
  out["util.steals"] = static_cast<double>(sum.steals);
  out["util.idle_ms"] = idle;
  out["util.dep_wait_ms"] = dep_wait;
  out["util.queue_wait_ms"] = queue_wait;
  out["bench.closure_residual_pct"] = worst;
}

/// Sums the managed agents' statistics into the core.* values.
struct AgentTotals {
  double calls{0};
  double predicted{0};
  double power_requests{0};
  double mispredict_wakes{0};

  void add(const ib::AgentStats& a) {
    calls += static_cast<double>(a.total_calls);
    predicted += static_cast<double>(a.predicted_calls);
    power_requests += static_cast<double>(a.power_requests);
    mispredict_wakes += static_cast<double>(a.mispredict_wakes);
  }
  void emit(Values& out) const {
    out["core.calls"] = calls;
    out["core.hit_rate_pct"] = calls > 0 ? 100.0 * predicted / calls : 0.0;
    out["core.wakes_per_request"] =
        power_requests > 0 ? mispredict_wakes / power_requests : 0.0;
  }
};

/// The managed leg's replay options, exactly as run_managed_leg builds them.
ib::ReplayOptions managed_options(const ib::ExperimentConfig& cfg) {
  ib::ReplayOptions opt;
  opt.fabric = cfg.fabric;
  opt.enable_power_management = true;
  opt.ppa = cfg.ppa;
  opt.eager_threshold = cfg.eager_threshold;
  opt.record_call_timeline = cfg.record_call_timeline;
  opt.shards = cfg.shards;
  opt.host = cfg.host;
  return opt;
}

std::uint64_t count_mode_changes(const ib::Fabric& fabric) {
  std::uint64_t n = 0;
  for (ib::LinkId l = 0; l < fabric.topology().num_links(); ++l) {
    n += fabric.link(l).segments().size();
  }
  return n;
}

/// Serial managed-leg probe over a workload's cells: engine construction
/// and run() timed separately, plus the rank-matching and link counters
/// the batch APIs do not hand back. Traces are generated once per key.
void probe_managed_legs(const std::vector<ib::ExperimentConfig>& cfgs,
                        Values& out) {
  ib::ReplayMemory memory;
  std::map<std::string, ib::Trace> traces;
  double ctor_ms = 0.0;
  double run_ms = 0.0;
  double recvs = 0.0;
  double rdv = 0.0;
  double modes = 0.0;
  for (const ib::ExperimentConfig& raw : cfgs) {
    const ib::ExperimentConfig cfg = ib::normalize_config(raw);
    const std::string key = ib::trace_cache_key(cfg);
    auto it = traces.find(key);
    if (it == traces.end()) {
      it = traces.emplace(key, ib::generate_experiment_trace(cfg)).first;
    }
    const auto t0 = Clock::now();
    ib::ReplayEngine engine(&it->second, managed_options(cfg), &memory);
    const auto t1 = Clock::now();
    const ib::ReplayResult rr = engine.run();
    const auto t2 = Clock::now();
    ctor_ms += ms_between(t0, t1);
    run_ms += ms_between(t1, t2);
    recvs += static_cast<double>(rr.drain.recvs_waited);
    rdv += static_cast<double>(rr.drain.rendezvous_blocked);
    modes += static_cast<double>(count_mode_changes(engine.fabric()));
  }
  out["sim.engine_setup_ms"] = ctor_ms;
  out["sim.run_ms"] = run_ms;
  out["sim.recvs_waited"] = recvs;
  out["sim.rendezvous_blocked"] = rdv;
  out["network.mode_changes"] = modes;
}

/// Predictor cost from outside: dry_run_hit_rate over one baseline call
/// timeline per distinct trace, for each distinct PpaConfig on it.
void probe_agent_cost(const std::vector<ib::ExperimentConfig>& cfgs,
                      Values& out) {
  ib::ReplayMemory memory;
  std::map<std::string, std::vector<std::vector<ib::MpiCallEvent>>> timelines;
  std::vector<std::string> done;
  double ns = 0.0;
  double calls = 0.0;
  for (const ib::ExperimentConfig& raw : cfgs) {
    const ib::ExperimentConfig cfg = ib::normalize_config(raw);
    const std::string key = ib::trace_cache_key(cfg);
    // The workloads vary only the predictor and GT across cells that share
    // a trace, so those identify a distinct agent configuration.
    const std::string agent_key =
        key + "|" + std::to_string(static_cast<int>(cfg.ppa.predictor.kind)) +
        "|" + std::to_string(cfg.ppa.predictor.guard_threshold.ns) + "|" +
        std::to_string(cfg.ppa.grouping_threshold.ns);
    if (std::find(done.begin(), done.end(), agent_key) != done.end()) continue;
    done.push_back(agent_key);
    auto it = timelines.find(key);
    if (it == timelines.end()) {
      const ib::Trace trace = ib::generate_experiment_trace(cfg);
      it = timelines
               .emplace(key, ib::baseline_call_timelines(cfg, trace, &memory))
               .first;
    }
    const auto t0 = Clock::now();
    (void)ib::dry_run_hit_rate(it->second, cfg.ppa);
    ns += ms_between(t0, Clock::now()) * 1e6;
    for (const auto& tl : it->second) calls += static_cast<double>(tl.size());
  }
  out["core.agent_ns_per_call"] = calls > 0 ? ns / calls : 0.0;
}

// ---------------------------------------------------------------------------
// paper_grid: the paper's 25-cell evaluation grid as one instrumented batch.

class PaperGrid final : public Workload {
 public:
  PaperGrid(std::uint64_t seed, int iterations)
      : seed_(seed), iterations_(iterations) {}

  void setup() override {
    cfgs_.clear();
    for (const auto& cell : ib::bench::paper_grid()) {
      ib::ExperimentConfig cfg =
          ib::bench::cell_config(cell, 0.01, iterations_);
      cfg.workload.seed = seed_;
      cfgs_.push_back(cfg);
    }
    runner_ = std::make_unique<ib::ParallelExperimentRunner>(
        ib::ThreadPool::default_concurrency());
  }
  std::vector<std::uint64_t> reference() override {
    std::vector<std::uint64_t> out;
    for (const auto& cfg : cfgs_) {
      ib::ExperimentConfig serial = cfg;
      serial.shards = 1;
      out.push_back(digest_experiment(ib::run_experiment(serial)));
    }
    return out;
  }

  PassResult pass(RunContext& ctx,
                  const std::vector<std::uint64_t>& expected) override {
    SpanRecorder& rec = *ctx.rec;
    const bool traced = rec.enabled();
    runner_->set_profiling(traced);
    PassResult r;
    r.attempted = static_cast<int>(cfgs_.size());
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    ScopedSpan pass_span(rec, "bench", "pass", -1);

    std::vector<ib::obs::InstrumentedResult> inst;
    std::int64_t epoch_ns = 0;
    std::int64_t window_ns = 0;
    std::int64_t grid_span = -1;
    {
      ScopedSpan s(rec, "obs", "obs::run_instrumented_grid", pass_span.id());
      grid_span = s.id();
      try {
        inst = ib::obs::run_instrumented_grid(*runner_, cfgs_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "paper_grid: pass failed: %s\n", e.what());
      }
      window_ns = runner_->engine().now_ns();
      epoch_ns = rec.now_ns() - window_ns;
    }
    std::size_t export_bytes = 0;
    const auto te = Clock::now();
    if (!inst.empty()) {
      ScopedSpan s(rec, "obs", "obs::write_metrics_json", pass_span.id());
      std::vector<ib::obs::CellMetrics> cells;
      cells.reserve(inst.size());
      for (std::size_t i = 0; i < inst.size(); ++i) {
        cells.push_back(ib::obs::make_cell_metrics(cfgs_[i], inst[i]));
      }
      std::ostringstream os;
      ib::obs::write_metrics_json(os, cells);
      export_bytes = os.str().size();
    }
    const double export_ms = ms_between(te, Clock::now());
    {
      ScopedSpan s(rec, "bench", "check_digests", pass_span.id());
      for (std::size_t i = 0; i < cfgs_.size(); ++i) {
        const bool ok = i < inst.size() && i < expected.size() &&
                        digest_experiment(inst[i].result) == expected[i];
        if (!ok) ++r.failed;
      }
    }
    r.wall_s = ms_between(t0, Clock::now()) / 1e3;
    r.cpu_s = cpu_seconds() - cpu0;
    if (!traced || inst.empty()) return r;

    Values& v = r.layers;
    const auto& gen = runner_->last_cell_gen_ms();
    const auto& base = runner_->last_cell_base_ms();
    const auto& managed = runner_->last_cell_managed_ms();
    double gen_sum = 0.0;
    double built = 0.0;
    double base_sum = 0.0;
    double managed_sum = 0.0;
    double events = 0.0;
    double wakes = 0.0;
    AgentTotals agents;
    for (std::size_t i = 0; i < inst.size(); ++i) {
      gen_sum += gen[i];
      built += gen[i] > 0.0 ? 1.0 : 0.0;
      base_sum += base[i];
      managed_sum += managed[i];
      events += static_cast<double>(inst[i].result.sim_events);
      wakes += static_cast<double>(inst[i].result.on_demand_wakes);
      agents.add(inst[i].result.agents);
    }
    v["workloads.gen_ms"] = gen_sum;
    v["workloads.traces_built"] = built;
    v["sim.baseline_leg_ms"] = base_sum;
    v["sim.managed_leg_ms"] = managed_sum;
    v["sim.managed_extra_ms"] = managed_sum - base_sum;
    v["sim.events"] = events;
    v["sim.ns_per_event"] =
        events > 0 ? (base_sum + managed_sum) * 1e6 / events : 0.0;
    v["network.on_demand_wakes"] = wakes;
    v["obs.export_ms"] = export_ms;
    v["obs.export_mb"] = static_cast<double>(export_bytes) / (1024.0 * 1024.0);
    agents.emit(v);

    // Task ids: one "gen" per distinct trace (in order of first use), then
    // each cell's baseline and managed legs.
    std::vector<int> cell_of;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < cfgs_.size(); ++i) {
      const std::string key = ib::trace_cache_key(cfgs_[i]);
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
        cell_of.push_back(static_cast<int>(i));
      }
    }
    for (std::size_t i = 0; i < cfgs_.size(); ++i) {
      cell_of.push_back(static_cast<int>(i));
      cell_of.push_back(static_cast<int>(i));
    }
    absorb_profile(ctx, runner_->last_sched_profile(), cell_of, grid_span,
                   epoch_ns, window_ns, v);
    return r;
  }

  void probes(Values& out) override {
    runner_->set_profiling(false);
    // Instrumented batch vs plain run_all on the same configs, in ABBA
    // order so drift between the two sides cancels.
    std::vector<double> plain;
    std::vector<double> instrumented;
    for (int rep = 0; rep < 4; ++rep) {
      const bool plain_first = rep == 0 || rep == 3;
      for (int k = 0; k < 2; ++k) {
        const bool do_plain = (k == 0) == plain_first;
        const auto t0 = Clock::now();
        if (do_plain) {
          (void)runner_->run_all(cfgs_);
        } else {
          (void)ib::obs::run_instrumented_grid(*runner_, cfgs_);
        }
        (do_plain ? plain : instrumented)
            .push_back(ms_between(t0, Clock::now()));
      }
    }
    out["obs.instrument_delta_ms"] = median(instrumented) - median(plain);
    probe_managed_legs(cfgs_, out);
    probe_agent_cost(cfgs_, out);
  }

  [[nodiscard]] unsigned workers() const override { return runner_->jobs(); }

 private:
  std::uint64_t seed_;
  int iterations_;
  std::vector<ib::ExperimentConfig> cfgs_;
  std::unique_ptr<ib::ParallelExperimentRunner> runner_;
};

// ---------------------------------------------------------------------------
// policy_sweep: predictor x host-policy study over two shared 128-rank
// traces, streamed through a CampaignSession.

class PolicySweep final : public Workload {
 public:
  PolicySweep(std::uint64_t seed, int iterations)
      : seed_(seed), iterations_(iterations) {}

  void setup() override {
    reqs_.clear();
    struct Predictor {
      const char* name;
      ib::PredictorKind kind;
      std::int64_t guard_us;
    };
    const Predictor predictors[] = {
        {"ppa", ib::PredictorKind::Ppa, 0},
        {"multi-timeout", ib::PredictorKind::MultiTimeout, 0},
        {"histogram", ib::PredictorKind::Histogram, 0},
        {"histogram+guard50", ib::PredictorKind::Histogram, 50},
    };
    for (const char* app : {"gromacs", "bursty"}) {
      for (const bool host : {false, true}) {
        const std::string cell_app = std::string(app) + (host ? "+host" : "");
        for (const Predictor& p : predictors) {
          ib::ExperimentConfig cfg = ib::bench::cell_config(
              {cell_app.c_str(), 128}, 0.01, iterations_);
          cfg.workload.seed = seed_;
          cfg.ppa.predictor.kind = p.kind;
          cfg.ppa.predictor.guard_threshold = ib::TimeNs::from_us(p.guard_us);
          ib::CampaignRequest req;
          req.id = std::string(app) + "/" + p.name +
                   (host ? "/host-countdown" : "/host-off");
          req.cfg = cfg;
          reqs_.push_back(std::move(req));
        }
      }
    }
    runner_ = std::make_unique<ib::ParallelExperimentRunner>(
        ib::ThreadPool::default_concurrency());
  }
  std::vector<std::uint64_t> reference() override {
    std::vector<std::uint64_t> out;
    for (const auto& req : reqs_) {
      ib::ExperimentConfig serial = req.cfg;
      serial.shards = 1;
      out.push_back(digest_experiment(ib::run_experiment(serial)));
    }
    return out;
  }

  PassResult pass(RunContext& ctx,
                  const std::vector<std::uint64_t>& expected) override {
    SpanRecorder& rec = *ctx.rec;
    const bool traced = rec.enabled();
    ib::TaskEngine& engine = runner_->engine();
    engine.reset();  // the session does not reset the task table itself
    runner_->set_profiling(traced);
    PassResult r;
    r.attempted = static_cast<int>(reqs_.size());
    std::vector<ib::CampaignRow> rows(reqs_.size());
    ib::CampaignCacheStats stats;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const std::int64_t epoch_ns = rec.now_ns() - engine.now_ns();
    std::int64_t window_ns = 0;
    std::int64_t pass_id = -1;
    {
      ScopedSpan pass_span(rec, "bench", "pass", -1);
      pass_id = pass_span.id();
      auto session = std::make_unique<ib::CampaignSession>(*runner_);
      for (std::size_t i = 0; i < reqs_.size(); ++i) {
        ScopedSpan s(rec, "sim", "CampaignSession::submit", pass_id,
                     static_cast<int>(i));
        session->submit(reqs_[i]);
      }
      for (std::size_t i = 0; i < reqs_.size(); ++i) {
        bool got = false;
        {
          ScopedSpan s(rec, "sim", "CampaignSession::pop", pass_id,
                       static_cast<int>(i));
          got = session->pop(&rows[i]);
        }
        ScopedSpan s(rec, "bench", "check_row", pass_id, static_cast<int>(i));
        const bool ok = got && rows[i].ok && rows[i].id == reqs_[i].id &&
                        i < expected.size() &&
                        digest_experiment(rows[i].result) == expected[i];
        if (!ok) {
          ++r.failed;
          if (got && !rows[i].ok) {
            std::fprintf(stderr, "policy_sweep: %s failed: %s\n",
                         rows[i].id.c_str(), rows[i].error.c_str());
          }
        }
        if (i == 0) r.first_row_s = ms_between(t0, Clock::now()) / 1e3;
      }
      stats = session->cache_stats();
      r.wall_s = ms_between(t0, Clock::now()) / 1e3;
      r.cpu_s = cpu_seconds() - cpu0;
      window_ns = engine.now_ns();
      // Inside the pass span: a finalize task's finish is stamped after
      // pop() has already returned its row.
      session.reset();
      engine.wait_all();
    }
    if (!traced) return r;

    Values& v = r.layers;
    double gen_sum = 0.0;
    double base_sum = 0.0;
    double managed_sum = 0.0;
    double events = 0.0;
    double wakes = 0.0;
    double host_delta = 0.0;
    double host_wakes = 0.0;
    double pstates = 0.0;
    AgentTotals agents;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ib::CampaignRow& row = rows[i];
      gen_sum += row.gen_ms;
      base_sum += row.base_ms;
      managed_sum += row.managed_ms;
      events += static_cast<double>(row.result.sim_events);
      wakes += static_cast<double>(row.result.on_demand_wakes);
      host_wakes += static_cast<double>(row.result.hosts.on_demand_wakes);
      pstates += static_cast<double>(row.result.hosts.pstate_changes);
      agents.add(row.result.agents);
      if (reqs_[i].cfg.host.enabled()) {
        host_delta += row.managed_ms - rows[i - kPredictors].managed_ms;
      }
    }
    v["workloads.gen_ms"] = gen_sum;
    v["workloads.traces_built"] = static_cast<double>(stats.trace_builds);
    v["sim.baseline_leg_ms"] = base_sum;
    v["sim.managed_leg_ms"] = managed_sum;
    v["sim.managed_extra_ms"] = managed_sum - base_sum;
    v["sim.events"] = events;
    v["sim.ns_per_event"] =
        events > 0 ? (base_sum + managed_sum) * 1e6 / events : 0.0;
    v["sim.campaign_hit_ratio"] =
        stats.requests > 0 ? static_cast<double>(stats.trace_hits) /
                                 static_cast<double>(stats.requests)
                           : 0.0;
    v["sim.campaign_max_live_traces"] =
        static_cast<double>(stats.max_live_traces);
    v["sim.campaign_first_row_ms"] = r.first_row_s * 1e3;
    v["network.on_demand_wakes"] = wakes;
    v["host.delta_ms"] = host_delta;
    v["host.wakes"] = host_wakes;
    v["host.pstate_changes"] = pstates;
    agents.emit(v);

    // Task ids per request, in submission order: [campaign-gen when the
    // trace was not cached], baseline, managed, finalize.
    const ib::SchedProfile prof = runner_->last_sched_profile();
    std::vector<int> cell_of;
    int req = 0;
    for (const auto& t : prof.tasks) {
      cell_of.push_back(req);
      if (std::string(t.label) == "campaign-finalize") ++req;
    }
    absorb_profile(ctx, prof, cell_of, pass_id, epoch_ns, window_ns, v);
    return r;
  }

  void probes(Values& out) override {
    std::vector<ib::ExperimentConfig> cfgs;
    for (const auto& req : reqs_) cfgs.push_back(req.cfg);
    probe_managed_legs(cfgs, out);
    probe_agent_cost(cfgs, out);
  }

  [[nodiscard]] unsigned workers() const override { return runner_->jobs(); }

 private:
  // Requests are ordered app x host x predictor, so a host-on request's
  // host-off twin sits kPredictors slots earlier.
  static constexpr std::size_t kPredictors = 4;
  std::uint64_t seed_;
  int iterations_;
  std::vector<ib::CampaignRequest> reqs_;
  std::unique_ptr<ib::ParallelExperimentRunner> runner_;
};

// ---------------------------------------------------------------------------
// fabric_replay: the `replay --trace --managed` path on a 1024-rank contended
// 3-level fat tree, one managed ReplayEngine per pass.

class FabricReplay final : public Workload {
 public:
  FabricReplay(std::uint64_t seed, int iterations, std::string workdir)
      : seed_(seed), iterations_(iterations), workdir_(std::move(workdir)) {}

  void setup() override {
    cfg_ = ib::bench::cell_config({"gromacs", 1024}, 0.01, iterations_);
    cfg_.workload.seed = seed_;
    // XGFT(3;8,8,16;1,4,2)
    cfg_.fabric.xgft = ib::XgftParams{8, 8, 1, 4, 16, 2};
    cfg_.fabric.contention = true;
    cfg_.fabric.routing.strategy = ib::RoutingStrategy::Consolidate;
    cfg_.fabric.trunk.kind = ib::TrunkPolicyKind::Timeout;
    cfg_.shards = 0;  // auto: the engine picks its shard count
    cfg_ = ib::normalize_config(cfg_);
    auto t0 = Clock::now();
    const ib::Trace trace = ib::generate_experiment_trace(cfg_);
    gen_ms_ = ms_between(t0, Clock::now());
    path_ = workdir_ + "/fabric_replay-" + std::to_string(seed_) + "-" +
            std::to_string(iterations_) + ".trace";
    t0 = Clock::now();
    ib::write_trace_file(path_, trace);
    write_ms_ = ms_between(t0, Clock::now());
    opt_ = managed_options(cfg_);
  }
  std::vector<std::uint64_t> reference() override {
    const ib::Trace trace = ib::read_trace_file(path_);
    ib::ReplayOptions serial = opt_;
    serial.shards = 1;
    ib::ReplayEngine engine(&trace, serial);
    const ib::ReplayResult rr = engine.run();
    return {digest_replay(engine, rr)};
  }

  PassResult pass(RunContext& ctx,
                  const std::vector<std::uint64_t>& expected) override {
    SpanRecorder& rec = *ctx.rec;
    PassResult r;
    r.attempted = 1;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    ScopedSpan pass_span(rec, "bench", "pass", -1);
    double read_ms = 0.0;
    double ctor_ms = 0.0;
    double run_ms = 0.0;
    try {
      std::unique_ptr<ib::Trace> trace;
      {
        ScopedSpan s(rec, "trace", "read_trace_file", pass_span.id());
        const auto a = Clock::now();
        trace = std::make_unique<ib::Trace>(ib::read_trace_file(path_));
        const std::string problem = trace->validate();
        if (!problem.empty()) throw std::runtime_error(problem);
        read_ms = ms_between(a, Clock::now());
      }
      std::unique_ptr<ib::ReplayEngine> engine;
      {
        ScopedSpan s(rec, "sim", "ReplayEngine::ReplayEngine", pass_span.id());
        const auto a = Clock::now();
        engine = std::make_unique<ib::ReplayEngine>(trace.get(), opt_);
        ctor_ms = ms_between(a, Clock::now());
      }
      ib::ReplayResult rr;
      {
        ScopedSpan s(rec, "sim", "ReplayEngine::run", pass_span.id());
        const auto a = Clock::now();
        rr = engine->run();
        run_ms = ms_between(a, Clock::now());
      }
      {
        ScopedSpan s(rec, "bench", "check_digest", pass_span.id());
        if (expected.empty() || digest_replay(*engine, rr) != expected[0]) {
          ++r.failed;
        }
      }
      r.wall_s = ms_between(t0, Clock::now()) / 1e3;
      r.cpu_s = cpu_seconds() - cpu0;
      if (rec.enabled()) {
        Values& v = r.layers;
        const double events = static_cast<double>(rr.events_processed);
        double stall_ns = 0.0;
        double boundary = 0.0;
        for (const auto& sp : rr.shard_profiles) {
          stall_ns += static_cast<double>(sp.stall_ns);
          boundary += static_cast<double>(sp.boundary_posts);
        }
        std::uint64_t wakes = 0;
        const ib::Fabric& fabric = engine->fabric();
        for (ib::LinkId l = 0; l < fabric.topology().num_links(); ++l) {
          wakes += fabric.link(l).on_demand_wakes();
        }
        AgentTotals agents;
        agents.add(rr.agent_total);
        agents.emit(v);
        v["trace.read_ms"] = read_ms;
        v["sim.engine_setup_ms"] = ctor_ms;
        v["sim.run_ms"] = run_ms;
        v["sim.events"] = events;
        v["sim.ns_per_event"] = events > 0 ? run_ms * 1e6 / events : 0.0;
        v["sim.recvs_waited"] = static_cast<double>(rr.drain.recvs_waited);
        v["sim.rendezvous_blocked"] =
            static_cast<double>(rr.drain.rendezvous_blocked);
        v["sim.shard_stall_ms"] = stall_ns / 1e6;
        v["sim.shard_boundary_ratio"] = events > 0 ? boundary / events : 0.0;
        v["network.mode_changes"] =
            static_cast<double>(count_mode_changes(fabric));
        v["network.on_demand_wakes"] = static_cast<double>(wakes);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fabric_replay: pass failed: %s\n", e.what());
      r.failed = 1;
      r.wall_s = ms_between(t0, Clock::now()) / 1e3;
      r.cpu_s = cpu_seconds() - cpu0;
    }
    if (rec.enabled()) {
      // The main thread is the only worker here: its closure residual is
      // the part of the pass no layer call covers.
      const double wall_ms = r.wall_s * 1e3;
      ClosureRow row;
      row.pass = ctx.pass;
      row.worker = -1;
      row.window_ms = wall_ms;
      row.busy_ms = read_ms + ctor_ms + run_ms;
      ctx.closure->push_back(row);
      r.layers["bench.closure_residual_pct"] =
          wall_ms > 0 ? 100.0 * std::fabs(row.residual_ms()) / wall_ms : 0.0;
    }
    return r;
  }

  void probes(Values& out) override {
    const ib::Trace trace = ib::read_trace_file(path_);
    auto timed_run = [&](const ib::ReplayOptions& opt) {
      ib::ReplayEngine engine(&trace, opt);
      const auto t0 = Clock::now();
      (void)engine.run();
      return ms_between(t0, Clock::now());
    };
    ib::ReplayOptions serial = opt_;
    serial.shards = 1;
    ib::ReplayOptions uncontended = opt_;
    uncontended.fabric.contention = false;
    std::vector<double> t_auto;
    std::vector<double> t_serial;
    std::vector<double> t_off;
    for (int rep = 0; rep < 3; ++rep) {
      t_auto.push_back(timed_run(opt_));
      t_serial.push_back(timed_run(serial));
      t_off.push_back(timed_run(uncontended));
    }
    out["sim.shard_speedup"] = median(t_serial) / median(t_auto);
    out["network.contention_delta_ms"] = median(t_auto) - median(t_off);
    {
      // The hop log is a plain vector: record it from a serial replay.
      std::vector<ib::HopRecord> hops;
      ib::ReplayEngine engine(&trace, serial);
      engine.fabric().set_hop_log(&hops);
      (void)engine.run();
      out["network.hops"] = static_cast<double>(hops.size());
    }
    probe_agent_cost({cfg_}, out);
  }

  [[nodiscard]] unsigned workers() const override {
    return ib::ThreadPool::default_concurrency();
  }
  [[nodiscard]] Values setup_layers() const override {
    return {{"workloads.gen_ms", gen_ms_},
            {"workloads.traces_built", 1.0},
            {"trace.write_ms", write_ms_}};
  }

 private:
  std::uint64_t seed_;
  int iterations_;
  std::string workdir_;
  ib::ExperimentConfig cfg_;
  ib::ReplayOptions opt_;
  std::string path_;
  double gen_ms_{0.0};
  double write_ms_{0.0};
};

// ---------------------------------------------------------------------------
// Digest file: one line per checked result,
//   <workload> <size> <seed> <index> <16 hex digits>

using DigestTable =
    std::map<std::string, std::vector<std::uint64_t>>;  // key: "w size seed"

std::string digest_key(const std::string& workload, const std::string& size,
                       std::uint64_t seed) {
  return workload + " " + size + " " + std::to_string(seed);
}

DigestTable load_digests(const std::string& path) {
  DigestTable table;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w;
    std::string size;
    std::uint64_t seed = 0;
    std::size_t index = 0;
    std::string hex;
    if (!(ls >> w >> size >> seed >> index >> hex)) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    auto& v = table[digest_key(w, size, seed)];
    if (v.size() <= index) v.resize(index + 1);
    v[index] = std::stoull(hex, nullptr, 16);
  }
  return table;
}

// ---------------------------------------------------------------------------
// Provenance

std::string read_first_match(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const auto colon = line.find(':');
      std::string v =
          colon == std::string::npos ? line : line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

std::string cgroup_quota() {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (v2 && std::getline(v2, line)) return line;
  std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  std::string quota;
  std::string period;
  if (q && p && (q >> quota) && (p >> period)) return quota + " " + period;
  return "none";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool trace{false};
  std::string size{"full"};
  std::string digests;
  std::string workdir{"."};
  std::string git_sha{"unknown"};
  std::string source_sha{"unknown"};
  bool print_reference{false};
  bool setup_only{false};
  std::int64_t launch_ns{0};          // CLOCK_MONOTONIC at spawn, 0: unknown
  std::vector<double> setup_samples;  // set-up times of earlier launches
};

std::string provenance_json(const Options& o, unsigned workers,
                            const char* reference) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"git_sha\": \"" << json_escape(o.git_sha) << "\", "
     << "\"source_sha256\": \"" << json_escape(o.source_sha) << "\", "
     << "\"cpu_model\": \""
     << json_escape(read_first_match("/proc/cpuinfo", "model name")) << "\", "
     << "\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", "
     << "\"affinity_cpus\": " << affinity << ", "
     << "\"cgroup_cpu_quota\": \"" << json_escape(cgroup_quota()) << "\", "
     << "\"compiler\": \"" << json_escape(compiler) << "\", "
     << "\"build_type\": \"" << IBBENCH_BUILD_TYPE << "\", "
     << "\"workload\": \"" << o.workload << "\", "
     << "\"size\": \"" << o.size << "\", "
     << "\"seed\": " << o.seed << ", "
     << "\"workers\": " << workers << ", "
     << "\"reference\": \"" << reference << "\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Main loop

std::unique_ptr<Workload> make_workload(const Options& o) {
  const bool tiny = o.size == "tiny";
  if (!tiny && o.size != "full") {
    throw std::invalid_argument("--size must be full or tiny");
  }
  if (o.workload == "paper_grid") {
    return std::make_unique<PaperGrid>(o.seed, tiny ? 4 : 100);
  }
  if (o.workload == "policy_sweep") {
    return std::make_unique<PolicySweep>(o.seed, tiny ? 4 : 100);
  }
  if (o.workload == "fabric_replay") {
    return std::make_unique<FabricReplay>(o.seed, tiny ? 4 : 60, o.workdir);
  }
  throw std::invalid_argument("unknown workload '" + o.workload +
                              "' (paper_grid|policy_sweep|fabric_replay)");
}

void print_metric_json(std::ostringstream& os, bool& first, const char* name,
                       double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

void write_spans_file(const std::string& path, const std::string& provenance,
                      const std::vector<Span>& spans,
                      const std::vector<ClosureRow>& closure,
                      const Values& layers, double overhead_ms,
                      const std::vector<double>& untraced,
                      const std::vector<double>& traced) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::vector<std::int64_t> self = self_times(spans);
  os << "{\n\"schema\": \"ibpower-perfbench-spans:v1\",\n";
  os << "\"provenance\": " << provenance << ",\n";
  os << "\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"pass\": " << s.pass << ", \"cell\": " << s.cell
       << ", \"layer\": \"" << s.layer << "\", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"self_ns\": " << self[i] << ", \"worker\": " << s.worker << "}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "],\n\"layer_self_ms\": {";
  bool first = true;
  for (const auto& [pass, by_layer] : layer_self_ms(spans)) {
    os << (first ? "" : ", ") << "\"" << pass << "\": {";
    bool f2 = true;
    for (const auto& [layer, ms] : by_layer) {
      os << (f2 ? "" : ", ") << "\"" << layer << "\": " << ms;
      f2 = false;
    }
    os << "}";
    first = false;
  }
  os << "},\n\"closure\": [\n";
  for (std::size_t i = 0; i < closure.size(); ++i) {
    const ClosureRow& c = closure[i];
    os << "  {\"pass\": " << c.pass << ", \"worker\": " << c.worker
       << ", \"window_ms\": " << c.window_ms << ", \"busy_ms\": " << c.busy_ms
       << ", \"idle_ms\": " << c.idle_ms
       << ", \"residual_ms\": " << c.residual_ms() << "}"
       << (i + 1 < closure.size() ? ",\n" : "\n");
  }
  os << "],\n\"untraced_wall_ms\": [";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    os << (i ? ", " : "") << untraced[i] * 1e3;
  }
  os << "],\n\"traced_wall_ms\": [";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    os << (i ? ", " : "") << traced[i] * 1e3;
  }
  os << "],\n\"tracing_overhead_ms\": " << overhead_ms << ",\n";
  os << "\"metrics\": {";
  first = true;
  for (const MetricDef& m : kPerLayer) {
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << layers.at(m.name) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}\n}\n";
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);

  if (o.print_reference) {
    w->setup();
    const std::vector<std::uint64_t> ref = w->reference();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      std::printf("%s %s %" PRIu64 " %zu %016" PRIx64 "\n",
                  o.workload.c_str(), o.size.c_str(), o.seed, i, ref[i]);
    }
    return 0;
  }

  // Set-up is timed from process launch (steady_clock is CLOCK_MONOTONIC,
  // the clock the launcher stamps). Its samples come from separate
  // launches: within one process it costs the same each time, but it
  // differs from process to process.
  const Clock::time_point launch =
      o.launch_ns > 0
          ? Clock::time_point(std::chrono::nanoseconds(o.launch_ns))
          : kProcessStart;
  w->setup();
  const double setup_here = ms_between(launch, Clock::now()) / 1e3;
  if (o.setup_only) {
    std::printf("setup_s %.9f\n", setup_here);
    return 0;
  }
  std::vector<double> setup_s = o.setup_samples;
  setup_s.push_back(setup_here);
  const DigestTable table = load_digests(o.digests);

  std::vector<std::uint64_t> expected;
  const char* reference = "pinned";
  if (const auto it = table.find(digest_key(o.workload, o.size, o.seed));
      it != table.end()) {
    expected = it->second;
  } else {
    reference = "serial";  // no pinned digests for this seed
    expected = w->reference();
  }
  const std::string provenance = provenance_json(o, w->workers(), reference);
  std::printf("provenance %s\n", provenance.c_str());

  SpanRecorder rec(kProcessStart);
  std::vector<ClosureRow> closure;
  RunContext ctx{&rec, &closure, 0};
  int attempted = 0;
  int failed = 0;
  auto account = [&](const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
  };

  // Warm-up pass: checked, not timed (arenas and caches grow here).
  account(w->pass(ctx, expected));

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  const auto t_measure = Clock::now();
  for (int i = 1;; ++i) {
    const bool trace_this = o.trace && i % 2 == 0;
    ctx.pass = i;
    rec.set_pass(i);
    rec.set_enabled(trace_this);
    PassResult p = w->pass(ctx, expected);
    rec.set_enabled(false);
    account(p);
    (trace_this ? traced : untraced).push_back(std::move(p));
    const double elapsed = ms_between(t_measure, Clock::now()) / 1e3;
    const std::size_t need = o.trace ? 2 : 3;
    if (elapsed >= o.seconds && untraced.size() >= need &&
        (!o.trace || traced.size() >= need)) {
      break;
    }
  }

  // The run's own peak, before the pinned check below allocates anything.
  const double rss_mb = peak_rss_mb();

  // Whatever the seed, every run also checks one committed digest set: a
  // tiny pass at the default seed against digests.txt. Without it, a seed
  // with no pinned digests would only be checked against its own serial
  // reference, which a change that alters results everywhere passes.
  {
    Options po = o;
    po.seed = kDefaultSeed;
    po.size = "tiny";
    const auto it = table.find(digest_key(po.workload, po.size, po.seed));
    if (it == table.end()) {
      throw std::runtime_error("digest file has no " +
                               digest_key(po.workload, po.size, po.seed) +
                               " entries");
    }
    std::unique_ptr<Workload> pw = make_workload(po);
    pw->setup();
    SpanRecorder off(kProcessStart);
    std::vector<ClosureRow> none;
    RunContext pctx{&off, &none, 0};
    const PassResult p = pw->pass(pctx, it->second);
    account(p);
    std::printf("pinned check: %s tiny seed %" PRIu64 ", %d of %d failed\n",
                po.workload.c_str(), po.seed, p.failed, p.attempted);
  }

  auto collect = [](const std::vector<PassResult>& v, double PassResult::*f) {
    std::vector<double> out;
    for (const auto& p : v) out.push_back(p.*f);
    return out;
  };
  const std::vector<double> wall = collect(untraced, &PassResult::wall_s);
  std::printf("workload %s  size %s  seed %" PRIu64
              "  workers %u  reference %s\n",
              o.workload.c_str(), o.size.c_str(), o.seed, w->workers(),
              reference);

  std::ostringstream metrics;
  bool first = true;
  if (!o.trace) {
    const std::map<std::string, std::vector<double>> samples = {
        {"setup_s", setup_s},
        {"wall_s", wall},
        {"cpu_s", collect(untraced, &PassResult::cpu_s)},
        {"peak_rss_mb", {rss_mb}},
    };
    auto report = [](const char* name, const std::vector<double>& v,
                     const char* unit) {
      std::printf("%-22s %12.6f %-5s median of %zu", name, median(v), unit,
                  v.size());
      const auto [pct, value] = tail_percentile(v);
      if (pct > 0) std::printf(", p%d %.6f", pct, value);
      std::printf("\n");
    };
    for (const MetricDef& m : kEndToEnd) {
      const std::vector<double>& v = samples.at(m.name);
      report(m.name, v, m.unit);
      print_metric_json(metrics, first, m.name, median(v), m.unit);
    }
    if (o.workload == "policy_sweep") {
      // Reported, not gated: see README.md, "first_row_s".
      report("first_row_s", collect(untraced, &PassResult::first_row_s), "s");
    }
  } else {
    Values layers;
    for (const MetricDef& m : kPerLayer) layers[m.name] = 0.0;
    for (const auto& [k, v] : w->setup_layers()) layers[k] = v;
    std::map<std::string, std::vector<double>> per_pass;
    for (const auto& p : traced) {
      for (const auto& [k, v] : p.layers) per_pass[k].push_back(v);
    }
    for (const auto& [k, v] : per_pass) layers[k] = median(v);
    for (const auto& [pass, by_layer] : layer_self_ms(rec.spans())) {
      (void)pass;
      for (const auto& [layer, ms] : by_layer) {
        per_pass["self." + layer + "_ms"].push_back(ms);
      }
    }
    for (const char* layer : {"bench", "workloads", "trace", "sim", "obs"}) {
      const std::string key = std::string("self.") + layer + "_ms";
      layers[key] = median(per_pass[key]);
    }
    // Closure: the worst worker of each traced pass, median over passes.
    if (!per_pass["bench.closure_residual_pct"].empty()) {
      layers["bench.closure_residual_pct"] =
          median(per_pass["bench.closure_residual_pct"]);
    }
    const std::vector<double> traced_wall =
        collect(traced, &PassResult::wall_s);
    const double overhead_ms = (median(traced_wall) - median(wall)) * 1e3;
    layers["bench.trace_overhead_ms"] = overhead_ms;
    layers["bench.spans"] = static_cast<double>(rec.spans().size());
    w->probes(layers);

    for (const MetricDef& m : kPerLayer) {
      std::printf("%-30s %14.4f %s\n", m.name, layers.at(m.name), m.unit);
      print_metric_json(metrics, first, m.name, layers.at(m.name), m.unit);
    }
    std::printf("tracing overhead %.3f ms (traced wall %.3f ms over %zu "
                "passes, untraced %.3f ms over %zu)\n",
                overhead_ms, median(traced_wall) * 1e3, traced_wall.size(),
                median(wall) * 1e3, wall.size());
    const double residual = layers.at("bench.closure_residual_pct");
    std::printf("closure: worst worker residual %.2f%% of the pass window "
                "(%s the %.0f%% tolerance)\n",
                residual,
                residual <= kClosureTolerancePct ? "within" : "OUTSIDE",
                kClosureTolerancePct);
    const std::string path = o.workdir + "/spans-" + o.workload + "-" +
                             o.size + "-" + std::to_string(o.seed) + ".json";
    write_spans_file(path, provenance, rec.spans(), closure, layers,
                     overhead_ms, collect(untraced, &PassResult::wall_s),
                     traced_wall);
    std::printf("spans %zu written to %s\n", rec.spans().size(), path.c_str());
  }
  std::printf("%-22s %12.6f %-5s (%d of %d)\n", "fail_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "ratio", failed, attempted);
  if (failed > 0) {
    std::fprintf(stderr, "FAIL: %d of %d checked results did not match\n",
                 failed, attempted);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics.str().c_str());
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--size") {
      o.size = value();
    } else if (a == "--digests") {
      o.digests = value();
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else if (a == "--source-sha") {
      o.source_sha = value();
    } else if (a == "--print-reference") {
      o.print_reference = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--launch-ns") {
      o.launch_ns = std::stoll(value());
    } else if (a == "--setup-samples") {
      std::istringstream in(value());
      for (std::string x; std::getline(in, x, ',');) {
        o.setup_samples.push_back(std::stod(x));
      }
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload required");
  if (!o.print_reference && !o.setup_only && o.digests.empty()) {
    throw std::invalid_argument("--digests required");
  }
  return o;
}

}  // namespace
}  // namespace ibbench

int main(int argc, char** argv) {
  try {
    return ibbench::run(ibbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
