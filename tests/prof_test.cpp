// Tests for the runtime observability subsystem (obs/prof.h,
// exp/prof_report.h, SweepRunner worker telemetry, heartbeat determinism).
//
// The suite is built in both configurations:
//  * default (-DMPS_PROF=OFF): proves the compile-out contract — empty guard
//    types, all-zero snapshots — and everything that doesn't need live
//    counters (report schema, rendering, worker telemetry, determinism).
//  * scripts/check.sh --prof (-DMPS_PROF=ON): additionally exercises the
//    live accumulators (nesting arithmetic, per-thread merge) and proves the
//    goldens stay byte-identical with profiling compiled in.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/prof_report.h"
#include "exp/scenario_run.h"
#include "exp/sweep.h"
#include "obs/prof.h"
#include "obs/recorder.h"

namespace mps {
namespace {

namespace fs = std::filesystem;

const fs::path kDataDir = fs::path(MPS_SOURCE_DIR) / "tests" / "data";
const fs::path kScenarioDir = fs::path(MPS_SOURCE_DIR) / "scenarios";

bool update_goldens() {
  const char* v = std::getenv("MPS_UPDATE_GOLDENS");
  return v != nullptr && std::string(v) == "1";
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- compile-out contract ---------------------------------------------------

#ifndef MPS_PROF
// With profiling compiled out the guard objects are empty and the macros
// expand to nothing; an instrumented site costs literally zero.
static_assert(sizeof(prof::ScopeTimer) == 1, "disabled ScopeTimer must be empty");
static_assert(sizeof(prof::MemScope) == 1, "disabled MemScope must be empty");
static_assert(!prof::compiled());

TEST(Prof, DisabledSnapshotIsAllZero) {
  const prof::Snapshot snap = prof::snapshot();
  EXPECT_EQ(snap.threads, 0u);
  for (const auto& s : snap.scopes) {
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.total_ns, 0u);
  }
  EXPECT_EQ(snap.memory_total.allocs, 0u);
}
#else
// Compiled in, the timer carries real state (accumulator ref); the point of
// the assert is that the two configurations genuinely differ.
static_assert(sizeof(prof::ScopeTimer) > 1, "enabled ScopeTimer must hold state");
static_assert(prof::compiled());

TEST(Prof, NestedScopesSplitSelfAndTotalExactly) {
  prof::reset();
  {
    MPS_PROF_SCOPE(kWorldBuild);
    {
      MPS_PROF_SCOPE(kSpecParse);
      volatile int sink = 0;
      for (int i = 0; i < 10000; ++i) sink = sink + i;
    }
  }
  const prof::Snapshot snap = prof::snapshot();
  const auto& outer = snap.scopes[static_cast<std::size_t>(prof::Scope::kWorldBuild)];
  const auto& inner = snap.scopes[static_cast<std::size_t>(prof::Scope::kSpecParse)];
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  // The accumulator subtracts a child's elapsed time from the parent's self
  // using the same clock reads, so the relation is exact, not approximate.
  EXPECT_EQ(outer.self_ns + inner.total_ns, outer.total_ns);
  EXPECT_EQ(inner.self_ns, inner.total_ns);  // leaf scope: self == total
  prof::reset();
}

TEST(Prof, RepeatedScopesAccumulateCounts) {
  prof::reset();
  for (int i = 0; i < 100; ++i) {
    MPS_PROF_SCOPE(kCcUpdate);
  }
  const prof::Snapshot snap = prof::snapshot();
  const auto& s = snap.scopes[static_cast<std::size_t>(prof::Scope::kCcUpdate)];
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.self_ns, s.total_ns);
  prof::reset();
}

TEST(Prof, PerThreadAccumulatorsMergeAcrossThreads) {
  prof::reset();
  constexpr int kThreads = 3;
  constexpr int kScopesPerThread = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kScopesPerThread; ++i) {
        MPS_PROF_SCOPE(kFaultDraw);
      }
    });
  }
  for (auto& t : pool) t.join();
  const prof::Snapshot snap = prof::snapshot();
  const auto& s = snap.scopes[static_cast<std::size_t>(prof::Scope::kFaultDraw)];
  // Merge must be lossless regardless of which thread did the work.
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kScopesPerThread));
  EXPECT_GE(snap.threads, static_cast<std::uint64_t>(kThreads));
  prof::reset();
}

TEST(Prof, MemoryAccountingChargesTaggedSubsystem) {
  prof::reset();
  std::vector<char>* block = nullptr;
  {
    MPS_PROF_MEM_SCOPE(kTraffic);
    block = new std::vector<char>(1 << 16);
  }
  prof::Snapshot snap = prof::snapshot();
  const auto& traffic = snap.memory[static_cast<std::size_t>(prof::MemSubsys::kTraffic)];
  EXPECT_GE(traffic.allocs, 1u);
  EXPECT_GE(traffic.bytes_allocated, static_cast<std::uint64_t>(1 << 16));
  EXPECT_GE(traffic.high_water_bytes, static_cast<std::uint64_t>(1 << 16));
  delete block;  // outside the scope: the free still credits kTraffic's size
  snap = prof::snapshot();
  const auto& after = snap.memory[static_cast<std::size_t>(prof::MemSubsys::kTraffic)];
  EXPECT_GE(after.frees, 1u);
  EXPECT_GE(after.bytes_freed, static_cast<std::uint64_t>(1 << 16));
  prof::reset();
}
#endif  // MPS_PROF

// --- ScopeStats merge algebra (build-independent) ---------------------------

TEST(Prof, MergeIsAssociativeAndCommutative) {
  const prof::ScopeStats a{3, 300, 200};
  const prof::ScopeStats b{5, 500, 400};
  const prof::ScopeStats c{7, 700, 600};

  prof::ScopeStats ab = a;
  ab.merge(b);
  prof::ScopeStats ab_c = ab;
  ab_c.merge(c);

  prof::ScopeStats bc = b;
  bc.merge(c);
  prof::ScopeStats a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c, a_bc);

  prof::ScopeStats ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
}

// --- SweepRunner worker telemetry -------------------------------------------

TEST(SweepTelemetry, ConservationHoldsExactlyPerWorker) {
  SweepRunner runner(SweepOptions{3});
  std::atomic<int> ran{0};
  runner.run(8, [&](std::size_t) {
    volatile int sink = 0;
    for (int i = 0; i < 50000; ++i) sink = sink + i;
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 8);

  const SweepTelemetry& t = runner.telemetry();
  EXPECT_EQ(t.jobs, 3);
  ASSERT_EQ(t.workers.size(), 3u);
  std::uint64_t cells = 0;
  for (const WorkerStats& w : t.workers) {
    // Integer nanoseconds: busy + wait + idle must equal the wall exactly.
    EXPECT_EQ(w.busy_ns + w.wait_ns + w.idle_ns, t.wall_ns);
    cells += w.cells;
  }
  EXPECT_EQ(cells, 8u);
}

TEST(SweepTelemetry, SerialPathReportsOneAllAccountedWorker) {
  SweepRunner runner(SweepOptions{1});
  runner.run(4, [](std::size_t) {});
  const SweepTelemetry& t = runner.telemetry();
  EXPECT_EQ(t.jobs, 1);
  ASSERT_EQ(t.workers.size(), 1u);
  EXPECT_EQ(t.workers[0].cells, 4u);
  EXPECT_EQ(t.workers[0].busy_ns + t.workers[0].wait_ns + t.workers[0].idle_ns, t.wall_ns);
}

TEST(SweepTelemetry, EmptySweepReportsNothing) {
  SweepRunner runner(SweepOptions{4});
  runner.run(0, [](std::size_t) { FAIL() << "no cells to run"; });
  EXPECT_TRUE(runner.telemetry().workers.empty());
  EXPECT_EQ(runner.telemetry().wall_ns, 0u);
}

// --- ProfileReport schema ---------------------------------------------------

ProfileReport fixed_report() {
  prof::Snapshot snap;
  snap.scopes[static_cast<std::size_t>(prof::Scope::kEventPop)] = {1000, 2'000'000, 2'000'000};
  snap.scopes[static_cast<std::size_t>(prof::Scope::kEventDispatch)] = {1000, 80'000'000,
                                                                        50'000'000};
  snap.scopes[static_cast<std::size_t>(prof::Scope::kSchedDecide)] = {400, 30'000'000,
                                                                      30'000'000};
  snap.memory[static_cast<std::size_t>(prof::MemSubsys::kConn)] = {50, 40, 1 << 20, 1 << 19,
                                                                   1 << 19, 1 << 20};
  snap.memory_total = {60, 45, 1 << 21, 1 << 19, 3 << 19, 1 << 21};
  snap.threads = 1;
  RunTelemetry telemetry{1000, 60.0};
  ProfileReport r = build_profile_report(snap, 0.5, &telemetry, 16);
  SweepTelemetry sweep;
  sweep.jobs = 2;
  sweep.wall_ns = 400'000'000;
  sweep.workers.push_back({390'000'000, 1'000'000, 9'000'000, 9});
  sweep.workers.push_back({350'000'000, 2'000'000, 48'000'000, 7});
  add_sweep_telemetry(r, sweep);
  return r;
}

TEST(ProfileReport, SubsystemSharesSumToOne) {
  const ProfileReport r = fixed_report();
  double sum = 0.0;
  for (const auto& s : r.subsystems) sum += s.share;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // "other" is the uninstrumented remainder and must be last.
  ASSERT_FALSE(r.subsystems.empty());
  EXPECT_EQ(r.subsystems.back().name, "other");
}

TEST(ProfileReport, BytesPerFlowUsesTotalHighWater) {
  const ProfileReport r = fixed_report();
  EXPECT_EQ(r.flows, 16u);
  EXPECT_DOUBLE_EQ(r.bytes_per_flow, static_cast<double>(1 << 21) / 16.0);
}

TEST(ProfileReport, JsonRoundTripPreservesEverything) {
  const ProfileReport r = fixed_report();
  const Json j = profile_report_to_json(r);
  const ProfileReport back = profile_report_from_json(Json::parse(j.dump()));

  EXPECT_EQ(back.profiling_compiled, r.profiling_compiled);
  EXPECT_DOUBLE_EQ(back.wall_s, r.wall_s);
  EXPECT_EQ(back.events, r.events);
  ASSERT_EQ(back.scopes.size(), r.scopes.size());
  for (std::size_t i = 0; i < r.scopes.size(); ++i) {
    EXPECT_EQ(back.scopes[i].name, r.scopes[i].name);
    EXPECT_EQ(back.scopes[i].count, r.scopes[i].count);
    EXPECT_DOUBLE_EQ(back.scopes[i].self_s, r.scopes[i].self_s);
  }
  ASSERT_EQ(back.memory.size(), r.memory.size());
  EXPECT_EQ(back.memory_total.high_water_bytes, r.memory_total.high_water_bytes);
  EXPECT_EQ(back.flows, r.flows);
  ASSERT_EQ(back.workers.size(), 2u);
  EXPECT_EQ(back.workers[1].idle_ns, 48'000'000u);
  EXPECT_EQ(back.workers_wall_ns, 400'000'000u);
  EXPECT_EQ(back.jobs, 2);
}

TEST(ProfileReport, FromJsonNamesTheMissingKey) {
  Json j = profile_report_to_json(fixed_report());
  Json run = *j.find("run");
  Json stripped = Json::object();
  for (const auto& [k, v] : run.members()) {
    if (k != "events") stripped.set(k, v);
  }
  j.set("run", stripped);
  try {
    profile_report_from_json(j);
    FAIL() << "expected a schema error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("events"), std::string::npos) << e.what();
  }
}

TEST(ProfileReport, FromJsonRejectsWrongSchemaVersion) {
  Json j = profile_report_to_json(fixed_report());
  j.set("schema", Json::string("mps.profile.v999"));
  EXPECT_THROW(profile_report_from_json(j), std::runtime_error);
}

// --- mps_report rendering, pinned byte-for-byte -----------------------------
// Two committed fixtures under tests/data/, each with its expected render
// beside it:
//   - prof_fixture.json: a fixed ProfileReport; renders prof_fixture.report.txt.
//   - prof_fixture.trace.jsonl: a hand-written JSONL trace for
//     `mps_report --trace`; renders prof_fixture.timelines.txt. It holds 2
//     conns (5 events each, with count ties to exercise the top-3 ordering),
//     one unparseable line and one line without t/conn.
// MPS_UPDATE_GOLDENS=1 refreshes only the expected renders (.report.txt,
// .timelines.txt) from the current renderer; it never writes the inputs.

TEST(ProfileReport, RenderMatchesPinnedFixture) {
  const fs::path fixture = kDataDir / "prof_fixture.json";
  ASSERT_TRUE(fs::exists(fixture)) << fixture;
  const ProfileReport r = profile_report_from_json(Json::parse(slurp(fixture)));
  const std::string actual = render_profile_report(r, 10);

  const fs::path expected_path = kDataDir / "prof_fixture.report.txt";
  if (update_goldens()) {
    std::ofstream out(expected_path, std::ios::binary);
    out << actual;
    return;
  }
  ASSERT_TRUE(fs::exists(expected_path))
      << "run: MPS_UPDATE_GOLDENS=1 ./tests/prof_test  (then review + commit)";
  EXPECT_EQ(slurp(expected_path), actual);
}

TEST(ProfileReport, FlowTimelinesMatchPinnedFixture) {
  const fs::path fixture = kDataDir / "prof_fixture.trace.jsonl";
  ASSERT_TRUE(fs::exists(fixture)) << fixture;
  std::ifstream trace(fixture);
  const std::string actual = render_flow_timelines(trace);

  const fs::path expected_path = kDataDir / "prof_fixture.timelines.txt";
  if (update_goldens()) {
    std::ofstream out(expected_path, std::ios::binary);
    out << actual;
    return;
  }
  ASSERT_TRUE(fs::exists(expected_path))
      << "run: MPS_UPDATE_GOLDENS=1 ./tests/prof_test  (then review + commit)";
  EXPECT_EQ(slurp(expected_path), actual);
}

// --- determinism: observability must not perturb the run --------------------
// The contended_bottleneck preset (traffic: churn + cross flows) runs twice:
// bare, and with telemetry + a high-frequency heartbeat attached. The
// rendered output — the exact string the golden corpus pins — must be
// byte-identical, and this holds in both MPS_PROF configurations.

std::string render_like_mps_run(const ScenarioSpec& spec, const ScenarioRunOptions& opts,
                                FlightRecorder* recorder) {
  std::string out;
  if (!spec.name.empty()) out += "scenario: " + spec.name + "\n";
  const ScenarioOutcome outcome = run_scenario(spec, opts);
  out += format_outcome(spec, outcome);
  if (opts.recorder != nullptr) {
    out += "\n--- flight recorder ---\n";
    std::ostringstream report;
    recorder->summarize(report);
    out += report.str();
  }
  return out;
}

TEST(Determinism, ObservabilityCannotPerturbARun) {
  const fs::path preset = kScenarioDir / "contended_bottleneck.json";
  ASSERT_TRUE(fs::exists(preset)) << preset;
  const std::string text = slurp(preset);

  ScenarioSpec spec = scenario_from_json(Json::parse(text));
  FlightRecorder bare_recorder;
  ScenarioRunOptions bare;
  if (spec.record.summarize &&
      (spec.traffic.enabled || spec.workload.kind == WorkloadKind::kStream)) {
    bare.recorder = &bare_recorder;
  }
  const std::string bare_out = render_like_mps_run(spec, bare, &bare_recorder);

  ScenarioSpec spec2 = scenario_from_json(Json::parse(text));
  FlightRecorder obs_recorder;
  ScenarioRunOptions observed;
  if (spec2.record.summarize &&
      (spec2.traffic.enabled || spec2.workload.kind == WorkloadKind::kStream)) {
    observed.recorder = &obs_recorder;
  }
  RunTelemetry telemetry;
  observed.telemetry = &telemetry;
  std::atomic<std::uint64_t> beats{0};
  observed.heartbeat.interval_s = 1e-6;  // beat on effectively every poll
  observed.heartbeat.fn = [&beats](const HeartbeatStats&) { beats.fetch_add(1); };
  const std::string observed_out = render_like_mps_run(spec2, observed, &obs_recorder);

  EXPECT_EQ(bare_out, observed_out)
      << "attaching --prof-out/--progress style observation changed the run";
  EXPECT_GT(telemetry.events, 0u);
  EXPECT_GT(telemetry.sim_s, 0.0);
}

}  // namespace
}  // namespace mps
