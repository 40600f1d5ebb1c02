// ecfbench: the simulator's end-to-end benchmark driver (see ../README.md).
//
//   ecfbench --workload paper_grid|population|fork_fanout --seed N
//            --seconds S --trace 0|1 [--t0-ns NS]
//   ecfbench --workload W --seed N --prof-pass
//
// Repeats one identical unit of the workload on this thread until S seconds
// have passed and prints one JSON object as the last line of stdout:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
//
//  --trace 0   end-to-end metrics: wall_s, setup_s, events_per_s, peak_rss_mb.
//  --trace 1   per-layer metrics. Units alternate untraced / traced (spans,
//              work counts, and a flight recorder on the one-connection
//              worlds); a fixed layer probe and the EventQueue churn runs
//              follow. Spans are written as JSONL under ecfbench/out/.
//  --prof-pass for a -DMPS_PROF=ON build: a warm-up unit, then an untraced
//              unit, a traced unit and the probe, each under the program's
//              profiler; prints the prof.* and mem.* allocation metrics.
//  --t0-ns     steady-clock time at which the caller started this process;
//              setup_s is measured from it (default: entry to main).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/prof.h"
#include "trace.h"
#include "workloads.h"

namespace ecfbench {
namespace {

// Span output, relative to the working directory (the repository root).
constexpr const char* kOutDir = "ecfbench/out";

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// run.py pins the process to one CPU so the cold set-up starts on a warm
// core. Once the first unit is done, the process may run on any CPU again,
// so the scheduler can move it off a core a neighbour is slowing down.
void unpin() {
  cpu_set_t all;
  CPU_ZERO(&all);
  const long n = sysconf(_SC_NPROCESSORS_CONF);
  for (long c = 0; c < n && c < CPU_SETSIZE; ++c) CPU_SET(static_cast<int>(c), &all);
  sched_setaffinity(0, sizeof(all), &all);  // best effort: pinned is still valid
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Within-run spread of the untraced units' wall time, to stderr: the
// figures the README's steadiness study quotes.
void print_unit_spread(const std::vector<UnitStats>& units) {
  std::vector<double> w;
  std::vector<double> cpu;
  for (const UnitStats& u : units) {
    w.push_back(u.wall_s);
    cpu.push_back(u.cpu_s);
  }
  std::sort(w.begin(), w.end());
  std::sort(cpu.begin(), cpu.end());
  const std::size_t n = w.size();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(stderr,
               "ecfbench: %zu untraced units, wall_s min %.4f q1 %.4f median %.4f q3 %.4f "
               "max %.4f; first (cold) unit %.4f; thread cpu_s q1 %.4f median %.4f q3 %.4f; "
               "involuntary context switches %ld\n",
               n, w.front(), w[n / 4], median(w), w[(3 * n) / 4], w.back(), units.front().wall_s,
               cpu[n / 4], median(cpu), cpu[(3 * n) / 4], ru.ru_nivcsw);
}

void report_failures(const UnitStats& u) {
  for (const std::string& f : u.failures) std::fprintf(stderr, "ecfbench: FAILED %s\n", f.c_str());
}

// Per-unit inclusive seconds in spans named `name`, median over `units`;
// when those units never entered the layer, the probe's figure.
double layer_s(const Tracer& tr, const char* name, const std::vector<int>& units) {
  const std::map<int, double> by_unit = tr.total_by_unit(name);
  std::vector<double> v;
  for (const int u : units) {
    if (const auto it = by_unit.find(u); it != by_unit.end()) v.push_back(it->second);
  }
  if (!v.empty()) return median(v);
  const auto it = by_unit.find(kProbeUnit);
  return it != by_unit.end() ? it->second : 0.0;
}

// exp.fork_s: the fork-k call minus what the unforked run of the same world
// cost (build + plan + run + finish), divided by k.
double fork_s_of(const Tracer& tr, int unit, int k) {
  auto at = [&](const char* name) {
    const std::map<int, double> m = tr.total_by_unit(name);
    const auto it = m.find(unit);
    return it != m.end() ? it->second : 0.0;
  };
  return (at("exp.fork") - at("scenario.build") - at("traffic.plan") - at("sim.run") -
          at("traffic.finish")) /
         k;
}

std::vector<Metric> layer_metrics(const Tracer& tr, const std::vector<UnitStats>& plain,
                                  const std::vector<UnitStats>& traced,
                                  const std::vector<int>& traced_ids,
                                  const std::vector<LayerCounts>& counts,
                                  const LayerCounts& probe, const std::vector<double>& faults) {
  const LayerCounts& c = counts.back();  // deterministic: every traced unit agrees
  std::vector<Metric> m;
  auto add = [&m](const char* name, double v, const char* unit) { m.push_back({name, v, unit}); };
  add("scenario.parse_s", layer_s(tr, "scenario.parse", traced_ids), "s");
  add("scenario.build_s", layer_s(tr, "scenario.build", traced_ids), "s");
  add("traffic.plan_s", layer_s(tr, "traffic.plan", traced_ids), "s");
  add("traffic.finish_s", layer_s(tr, "traffic.finish", traced_ids), "s");
  add("traffic.flows_started", static_cast<double>(c.flows_started), "count");
  add("traffic.flows_completed", static_cast<double>(c.flows_completed), "count");
  add("sim.run_s", layer_s(tr, "sim.run", traced_ids), "s");
  std::vector<double> ns_per_event;
  for (const UnitStats& u : traced) {
    if (u.events > 0) ns_per_event.push_back(u.run_s * 1e9 / static_cast<double>(u.events));
  }
  add("sim.ns_per_event", median(ns_per_event), "ns");
  add("sim.events", static_cast<double>(traced.back().events), "count");
  add("sched.decisions", static_cast<double>(c.decisions), "count");
  double decide_ns = 0.0;
  std::uint64_t replayed = 0;
  for (const LayerCounts& lc : counts) {
    decide_ns += lc.decide_total_ns;
    replayed += lc.ecf_replayed;
  }
  if (replayed == 0) {
    decide_ns = probe.decide_total_ns;
    replayed = probe.ecf_replayed;
  }
  add("sched.decide_ns", replayed > 0 ? decide_ns / static_cast<double>(replayed) : 0.0, "ns");
  add("exp.format_s", layer_s(tr, "exp.format", traced_ids), "s");
  std::vector<double> fork_s;
  if (c.forks > 0) {
    for (const int u : traced_ids) fork_s.push_back(fork_s_of(tr, u, c.forks));
  } else {
    fork_s.push_back(fork_s_of(tr, kProbeUnit, probe.forks));
  }
  add("exp.fork_s", median(fork_s), "s");
  add("exp.whatif_shared_s", layer_s(tr, "exp.whatif_shared", traced_ids), "s");
  add("exp.whatif_scratch_s", layer_s(tr, "exp.whatif_scratch", traced_ids), "s");
  add("net.packets_delivered", static_cast<double>(c.packets_delivered), "count");
  add("net.queue_drops", static_cast<double>(c.queue_drops), "count");
  add("tcp.retransmits", static_cast<double>(c.retransmits), "count");
  add("tcp.rto_fires", static_cast<double>(c.rto_fires), "count");
  add("mptcp.reinjections", static_cast<double>(c.reinjections), "count");
  add("app.chunks", static_cast<double>(c.chunks), "count");
  add("app.objects", static_cast<double>(c.objects), "count");
  add("mem.minor_faults", median(faults), "count");
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  for (std::size_t i = 1; i < plain.size(); ++i) plain_wall.push_back(plain[i].wall_s);
  for (const UnitStats& u : traced) traced_wall.push_back(u.wall_s);
  add("obs.recorder_overhead_s", median(traced_wall) - median(plain_wall), "s");
  // Pending-set sizes seen mid-run: 10-14 events in a paper_grid cell,
  // 102k-120k in the population world.
  add("sim.queue_ns_per_op.small", queue_ns_per_op(16, 1), "ns");
  add("sim.queue_ns_per_op.large", queue_ns_per_op(110000, 2), "ns");
  return m;
}

bool write_trace(const Tracer& tr, const std::string& dir, const std::string& stem) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!tr.write_jsonl(dir + "/" + stem + ".spans.jsonl")) return false;
  std::FILE* f = std::fopen((dir + "/" + stem + ".self.json").c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, s] : tr.self_by_name()) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", name.c_str(), s);
    first = false;
  }
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

int prof_pass(Workload& wl) {
  namespace prof = mps::prof;
  if (!prof::compiled()) {
    std::fprintf(stderr, "ecfbench: --prof-pass needs a -DMPS_PROF=ON build\n");
    return 2;
  }
  Tracer tr;  // off: the profiler is the instrument here
  UnitStats tally;
  tally.add_ops(wl.run_unit(tr, nullptr));  // warm-up
  // An untraced unit for the stack's own seams and memory, a traced one for
  // the recorder's seams, and the probe for seams the workload never enters.
  auto profiled = [&](auto&& body) {
    prof::reset();
    body();
    return prof::snapshot();
  };
  LayerCounts counts;
  LayerCounts probe_counts;
  const prof::Snapshot unit = profiled([&] { tally.add_ops(wl.run_unit(tr, nullptr)); });
  const prof::Snapshot traced = profiled([&] { tally.add_ops(wl.run_unit(tr, &counts)); });
  const prof::Snapshot probe = profiled([&] { tally.add_ops(run_probe(tr, &probe_counts)); });

  using prof::Scope;
  auto self_s = [&](const prof::Snapshot& first, std::initializer_list<Scope> scopes) {
    auto sum = [&](const prof::Snapshot& s) {
      std::uint64_t ns = 0;
      for (const Scope sc : scopes) ns += s.scopes[static_cast<std::size_t>(sc)].self_ns;
      return ns;
    };
    const std::uint64_t ns = sum(first) > 0 ? sum(first) : sum(probe);
    return static_cast<double>(ns) * 1e-9;
  };
  std::vector<Metric> m;
  m.push_back({"prof.event_pop_s", self_s(unit, {Scope::kEventPop}), "s"});
  m.push_back({"prof.event_dispatch_s", self_s(unit, {Scope::kEventDispatch}), "s"});
  m.push_back({"prof.sched_decide_s", self_s(unit, {Scope::kSchedDecide}), "s"});
  m.push_back({"prof.cc_update_s", self_s(unit, {Scope::kCcUpdate}), "s"});
  m.push_back({"prof.fault_draw_s", self_s(unit, {Scope::kFaultDraw}), "s"});
  m.push_back({"prof.recorder_s",
               self_s(traced, {Scope::kRecorderEvent, Scope::kRecorderDecision,
                               Scope::kMetricsRegister}),
               "s"});
  const prof::MemStats& mem = unit.memory_total;
  m.push_back({"mem.allocs", static_cast<double>(mem.allocs), "count"});
  m.push_back({"mem.alloc_bytes", static_cast<double>(mem.bytes_allocated), "bytes"});
  m.push_back({"mem.bytes_per_flow",
               static_cast<double>(mem.high_water_bytes) /
                   static_cast<double>(std::max<std::uint64_t>(1, counts.flows)),
               "bytes"});
  report_failures(tally);
  print_result(true, tally.attempted, tally.failed, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ecfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--t0-ns NS]\n"
               "       ecfbench --workload NAME --seed N --prof-pass\n"
               "workloads: paper_grid population fork_fanout\n");
  return 2;
}

int run(int argc, char** argv) {
  const std::int64_t main_ns = now_ns();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::int64_t t0_ns = 0;
  bool prof = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) workload = argv[++i];
    else if (a == "--seed" && has_value) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value) seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has_value) trace = std::atoi(argv[++i]);
    else if (a == "--t0-ns" && has_value) t0_ns = std::strtoll(argv[++i], nullptr, 10);
    else if (a == "--prof-pass") prof = true;
    else return usage();
  }
  const std::unique_ptr<Workload> wl = make_workload(workload, seed);
  if (!wl || !(seconds > 0.0) || (trace != 0 && trace != 1)) return usage();
  if (prof) return prof_pass(*wl);
  const std::int64_t start_ns = t0_ns > 0 ? t0_ns : main_ns;

  // Measured units. In traced mode every second unit is traced; the first
  // unit is always untraced (it carries the cold set-up).
  Tracer tr;
  std::vector<UnitStats> plain;
  std::vector<UnitStats> traced;
  std::vector<int> traced_ids;
  std::vector<LayerCounts> counts;
  std::vector<double> faults;
  const std::int64_t m0 = now_ns();
  for (int i = 0;; ++i) {
    const bool traced_unit = trace == 1 && i % 2 == 1;
    tr.set_on(traced_unit);
    tr.set_unit(i);
    LayerCounts c;
    const long f0 = minor_faults();
    const double cpu0 = thread_cpu_s();
    UnitStats u = wl->run_unit(tr, traced_unit ? &c : nullptr);
    u.cpu_s = thread_cpu_s() - cpu0;
    if (i == 0) unpin();
    if (traced_unit) {
      traced.push_back(std::move(u));
      traced_ids.push_back(i);
      counts.push_back(c);
    } else {
      if (i > 0) faults.push_back(static_cast<double>(minor_faults() - f0));
      plain.push_back(std::move(u));
    }
    const bool enough = plain.size() >= 3 && (trace == 0 || traced.size() >= 3);
    if (enough && since_s(m0) >= seconds) break;
  }
  const double rss_mb = peak_rss_mb();

  UnitStats tally;
  for (const auto* set : {&plain, &traced}) {
    for (const UnitStats& u : *set) tally.add_ops(u);
  }
  tr.set_on(false);
  wl->run_once(tally);

  std::string control_report;
  const int bad_controls = negative_controls(&control_report);
  if (bad_controls > 0) std::fprintf(stderr, "ecfbench: negative controls:\n%s", control_report.c_str());

  std::vector<Metric> metrics;
  print_unit_spread(plain);
  std::fprintf(stderr, "ecfbench: cold set-up: process start -> main %.3f ms, main -> set-up end %.3f ms\n",
               static_cast<double>(main_ns - start_ns) * 1e-6,
               static_cast<double>(plain.front().setup_end_ns - main_ns) * 1e-6);
  if (trace == 0) {
    std::vector<double> wall;
    std::vector<double> eps;
    for (const UnitStats& u : plain) {
      wall.push_back(u.wall_s);
      if (u.run_s > 0.0) eps.push_back(static_cast<double>(u.events) / u.run_s);
    }
    metrics.push_back({"wall_s", median(wall), "s"});
    metrics.push_back(
        {"setup_s", static_cast<double>(plain.front().setup_end_ns - start_ns) * 1e-9, "s"});
    metrics.push_back({"events_per_s", median(eps), "events/s"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    tr.set_on(true);
    LayerCounts probe;
    tally.add_ops(run_probe(tr, &probe));
    tr.set_on(false);
    metrics = layer_metrics(tr, plain, traced, traced_ids, counts, probe, faults);
    const std::string stem = workload + "-seed" + std::to_string(seed);
    if (!write_trace(tr, kOutDir, stem)) {
      std::fprintf(stderr, "ecfbench: cannot write spans under %s\n", kOutDir);
      return 1;
    }
  }
  report_failures(tally);
  print_result(bad_controls == 0, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ecfbench

int main(int argc, char** argv) {
  try {
    return ecfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecfbench: %s\n", e.what());
    return 1;
  }
}
