// The benchmark's workloads. Each one repeats an identical unit of work —
// spec text in, checked outcome text out — through the library's public
// entry points only (parse_scenario, WorldBuilder::build, run_scenario,
// format_outcome, TrafficEngine start/finish/collect with
// Simulator::run_until, run_scenario_fork_k, run_whatif_grid). All work runs
// on the calling thread; sweeps are pinned to jobs=1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace ecfbench {

// Work counts of one traced unit, from the flight recorder's metrics and the
// outcomes. Deterministic: every traced unit of a run reports the same.
struct LayerCounts {
  std::uint64_t flows = 0;  // flow population the unit holds (bytes/flow base)
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t decisions = 0;  // scheduler picks + waits
  std::uint64_t packets_delivered = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t reinjections = 0;
  std::uint64_t chunks = 0;
  std::uint64_t objects = 0;
  std::uint64_t ecf_replayed = 0;  // logged ECF decisions replayed
  double decide_total_ns = 0.0;    // time spent replaying and comparing them
  int forks = 0;                   // k of the unit's fork-k call, if any
};

// One unit's timing and operation tally. `attempted`/`failed` count
// operations (one per cell, fork or what-if branch, plus unit-level claims);
// an operation fails when any of its property checks does.
struct UnitStats {
  double wall_s = 0.0;
  double setup_s = 0.0;  // parse + build (+ traffic plan) phase
  double run_s = 0.0;    // time inside the simulation entry points
  double cpu_s = 0.0;    // thread CPU time of the whole unit (diagnostic)
  std::uint64_t events = 0;
  std::int64_t setup_end_ns = 0;  // steady-clock end of the set-up phase
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  // Counts one operation; `verdict` is the first failing check's reason.
  void tally(const std::string& verdict) {
    ++attempted;
    if (verdict.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(verdict);
  }

  // Adds another unit's operations into this tally.
  void add_ops(const UnitStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& f : o.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs one unit. With `counts` non-null the unit is traced: a flight
  // recorder is attached wherever the entry point takes one and `counts` is
  // filled. Spans go to `tracer` whenever it is on.
  virtual UnitStats run_unit(Tracer& tracer, LayerCounts* counts) = 0;
  // Untimed checks made once per run, after the measured units.
  virtual void run_once(UnitStats& tally) { (void)tally; }
};

const std::vector<std::string>& workload_names();
// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

// Fixed layer probe of the traced mode: a small ECF competing-traffic cell
// with a Gilbert-Elliott WiFi path, driven through the traffic engine, forked
// two ways, plus a shared-prefix and a scratch what-if on a download cell.
// Layers a workload never enters take their per-layer times from here.
UnitStats run_probe(Tracer& tracer, LayerCounts* counts);
inline constexpr int kProbeUnit = -2;

// EventQueue schedule/cancel/pop churn driven directly at a fixed pending-set
// size; returns ns per queue operation.
double queue_ns_per_op(std::size_t pending, std::uint64_t seed);

}  // namespace ecfbench
