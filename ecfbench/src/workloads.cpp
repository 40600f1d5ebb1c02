#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "check/invariants.h"
#include "checks.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "exp/sweep.h"
#include "obs/recorder.h"
#include "sched/registry.h"
#include "scenario/spec.h"
#include "scenario/world.h"
#include "sim/event_queue.h"
#include "traffic/engine.h"

namespace ecfbench {
namespace {

// The benchmark's own input generator (SplitMix64): the same --seed gives
// the same spec texts.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  std::uint64_t spec_seed() { return 1 + next() % 100000; }

 private:
  std::uint64_t x_;
};

const mps::SweepOptions kSerial{1};

// The paper's four schedulers, named as the registry names them.
const std::vector<std::string> kPaperSchedulers = {"default", "ecf", "daps", "blest"};

std::string paths_json(double wifi, double lte, const char* wifi_extra = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[{\"profile\": \"wifi\", \"rate_mbps\": %.6g%s}, "
                "{\"profile\": \"lte\", \"rate_mbps\": %.6g}]",
                wifi, wifi_extra, lte);
  return buf;
}

std::string stream_text(double wifi, double lte, const std::string& sched, double video_s,
                        std::uint64_t seed) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"fig09-%s-%.1f-%.1f\", \"paths\": %s, \"scheduler\": \"%s\",\n"
                " \"workload\": {\"kind\": \"stream\", \"video_s\": %.6g, \"runs\": 1},"
                " \"seed\": %llu}\n",
                sched.c_str(), wifi, lte, paths_json(wifi, lte).c_str(), sched.c_str(), video_s,
                static_cast<unsigned long long>(seed));
  return buf;
}

std::string download_text(double wifi, double lte, const std::string& sched,
                          std::int64_t bytes, int runs, std::uint64_t seed) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"fig18-%s-%lldB-lte%.0f\", \"paths\": %s, \"scheduler\": \"%s\",\n"
                " \"workload\": {\"kind\": \"download\", \"bytes\": %lld, \"runs\": %d},"
                " \"seed\": %llu}\n",
                sched.c_str(), static_cast<long long>(bytes), lte,
                paths_json(wifi, lte).c_str(), sched.c_str(), static_cast<long long>(bytes),
                runs, static_cast<unsigned long long>(seed));
  return buf;
}

std::string web_text(double wifi, double lte, const std::string& sched, int runs,
                     std::uint64_t seed) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"fig20-%s-%.0f-%.0f\", \"paths\": %s, \"scheduler\": \"%s\",\n"
                " \"workload\": {\"kind\": \"web\", \"runs\": %d}, \"seed\": %llu}\n",
                sched.c_str(), wifi, lte, paths_json(wifi, lte).c_str(), sched.c_str(), runs,
                static_cast<unsigned long long>(seed));
  return buf;
}

// Competing traffic in the shape of bench_scale's cells: ~24 kbps of
// capacity per flow on each path, Poisson churn at 5% of the population per
// second (capped at a tenth of it), exponential sizes with a 256 KiB mean.
struct TrafficShape {
  std::string scheduler;
  std::int64_t flows = 0;
  double duration_s = 0.0;
  const char* wifi_extra = "";  // extra WiFi path JSON, e.g. a fault block

  double path_mbps() const { return static_cast<double>(flows) * 0.024; }
  std::int64_t max_arrivals() const { return std::max<std::int64_t>(flows / 10, 16); }
};

std::string traffic_text(const TrafficShape& t, std::uint64_t seed) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"traffic-%s-%lld\", \"paths\": %s, \"scheduler\": \"%s\",\n"
                " \"traffic\": {\"flows\": %lld, \"arrival_rate_per_s\": %.6g,"
                " \"max_arrivals\": %lld, \"flow_bytes\": 262144,"
                " \"size_dist\": \"exponential\", \"duration_s\": %.6g},"
                " \"seed\": %llu}\n",
                t.scheduler.c_str(), static_cast<long long>(t.flows),
                paths_json(t.path_mbps(), t.path_mbps(), t.wifi_extra).c_str(),
                t.scheduler.c_str(), static_cast<long long>(t.flows),
                static_cast<double>(t.flows) * 0.05, static_cast<long long>(t.max_arrivals()),
                t.duration_s, static_cast<unsigned long long>(seed));
  return buf;
}

void add_recorder_counts(const mps::FlightRecorder& rec, LayerCounts& c) {
  const mps::MetricsRegistry& m = rec.metrics();
  c.queue_drops += m.total("link.drops_queue");
  c.retransmits += m.total("subflow.retransmits");
  c.rto_fires += m.total("subflow.rtos");
  c.reinjections += m.total("conn.reinjections");
  c.decisions += rec.total_picks() + rec.total_waits();
}

// Replays the recorder's logged ECF terms through ecf_decide: the replay
// check's verdict, with the time the replay took added into `c`.
std::string replay_ecf(const mps::FlightRecorder& rec, LayerCounts& c) {
  std::vector<mps::SchedDecision> logged;
  for (const mps::FlightRecorder::TimedDecision& td : rec.decisions()) {
    if (td.d.has_ecf_terms) logged.push_back(td.d);
  }
  const std::int64_t t0 = now_ns();
  std::string verdict = check_ecf_replay(logged);
  c.decide_total_ns += static_cast<double>(now_ns() - t0);
  c.ecf_replayed += logged.size();
  return verdict;
}

std::string first_failure(std::initializer_list<std::string> verdicts) {
  for (const std::string& v : verdicts) {
    if (!v.empty()) return v;
  }
  return {};
}

// ---------------------------------------------------------------------------
// One competing-traffic world driven stage by stage, as the population and
// fork workloads (and the probe) run it: parse -> build -> plan (engine
// construction + start) -> run_until(end_time) -> finish + collect -> format.
struct TrafficCase {
  mps::ScenarioSpec spec;
  std::unique_ptr<mps::FlightRecorder> recorder;
  std::unique_ptr<mps::WorldBuilder> builder;
  std::unique_ptr<mps::World> world;
  std::unique_ptr<mps::TrafficEngine> engine;
  mps::TrafficResult result;
  std::string text;
  double run_s = 0.0;  // wall time inside Simulator::run_until

  // Per-connection work, summed from each flow's connection just before the
  // engine destroys it (counting runs only).
  std::uint64_t picks = 0;
  std::uint64_t reinjections = 0;

  // Parse, build and plan; returns with the engine started. `counting`
  // installs the flow-end hook that sums per-connection work; `record`
  // attaches a flight recorder that keeps every scheduler decision. The
  // recorder's instrument registry looks instruments up by linear scan, so
  // its cost grows with the square of the connection count: only small
  // worlds carry one.
  void set_up(Tracer& tr, const std::string& spec_text, bool counting, bool record) {
    {
      SpanScope s(tr, "scenario.parse");
      spec = mps::parse_scenario(spec_text);
    }
    if (record) {
      recorder = std::make_unique<mps::FlightRecorder>();
      recorder->set_keep_decisions(true);
    }
    {
      SpanScope s(tr, "scenario.build");
      builder = std::make_unique<mps::WorldBuilder>(spec);
      world = builder->build(recorder.get());
    }
    {
      SpanScope s(tr, "traffic.plan");
      engine = std::make_unique<mps::TrafficEngine>(*world, builder->spec());
      if (counting) {
        engine->on_flow_end = [this](mps::Connection& c) {
          picks += c.meta_stats().segments_scheduled;
          reinjections += c.meta_stats().reinjections;
        };
      }
      engine->start();
    }
  }

  // Runs to the end, collects and formats. Returns events executed.
  std::uint64_t run(Tracer& tr) {
    const std::uint64_t before = world->sim().events_processed();
    const std::int64_t t0 = now_ns();
    {
      SpanScope s(tr, "sim.run");
      world->sim().run_until(engine->end_time());
    }
    run_s = since_s(t0);
    const std::uint64_t events = world->sim().events_processed() - before;
    {
      SpanScope s(tr, "traffic.finish");
      engine->finish();
      result = engine->collect();
    }
    {
      SpanScope s(tr, "exp.format");
      mps::ScenarioOutcome out;
      out.traffic = result;
      text = mps::format_outcome(builder->spec(), out);
    }
    return events;
  }

  std::uint64_t link_delivered() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < world->path_count(); ++i) {
      n += world->path(i).down().stats().packets_delivered;
      n += world->path(i).up().stats().packets_delivered;
    }
    return n;
  }

  // Drains the links first, as tests/property_test.cpp does: a link counts
  // a packet delivered at the end of transmission, the mux one propagation
  // delay later, and every connection is gone by now, so stragglers land as
  // orphans.
  std::string check(const TrafficShape& shape) {
    world->run_for(mps::Duration::seconds(2));
    TrafficObs o;
    o.capacity_mbps = 2.0 * shape.path_mbps();
    o.flows = shape.flows;
    o.max_arrivals = shape.max_arrivals();
    o.goodput_mbps = result.aggregate_goodput_mbps;
    o.started = result.started;
    o.completed = result.completed;
    o.jain = result.jain;
    o.mux_routed = world->down_mux().routed_count() + world->up_mux().routed_count();
    o.mux_orphans = world->down_mux().orphan_count() + world->up_mux().orphan_count();
    o.link_delivered = link_delivered();
    return check_traffic(o);
  }

  void count(LayerCounts& c, std::int64_t flows) const {
    c.flows += static_cast<std::uint64_t>(flows);
    c.flows_started += result.started;
    c.flows_completed += result.completed;
    c.objects += result.completed;
    c.packets_delivered += link_delivered();
    for (std::size_t i = 0; i < world->path_count(); ++i) {
      c.queue_drops += world->path(i).down().stats().drops_queue;
      c.queue_drops += world->path(i).up().stats().drops_queue;
    }
    for (const mps::TrafficFlowRecord& f : result.flows) {
      c.retransmits += f.retransmits;
      c.rto_fires += f.rto_events;
    }
    c.decisions += picks;
    c.reinjections += reinjections;
  }

  void tear_down() {
    engine.reset();
    world.reset();
    builder.reset();
  }
};

// ---------------------------------------------------------------------------
// paper_grid: a seed-chosen slice of the paper's Fig. 9, 18 and 20 cells.
class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(std::uint64_t seed) {
    SeedRng rng(seed);
    const std::uint64_t stream_seed = rng.spec_seed();
    const std::uint64_t dl_seed = rng.spec_seed();
    const std::uint64_t web_seed = rng.spec_seed();
    // The corpus: every cell of the three figures as spec text (Fig. 9's
    // 6x6 bandwidth grid, Fig. 18's 4 sizes x 10 LTE rates, Fig. 20's three
    // configurations; each under the four schedulers). Every unit parses and
    // builds all of it; that is the set-up phase.
    const double grid[6] = {0.3, 0.7, 1.1, 1.7, 4.2, 8.6};
    for (const double wifi : grid) {
      for (const double lte : grid) {
        for (const std::string& s : kPaperSchedulers) {
          corpus_.push_back(stream_text(wifi, lte, s, 180.0, stream_seed));
        }
      }
    }
    for (const std::int64_t kb : {128, 256, 512, 1024}) {
      for (int lte = 1; lte <= 10; ++lte) {
        for (const std::string& s : kPaperSchedulers) {
          corpus_.push_back(download_text(1.0, lte, s, kb * 1024, 5, dl_seed));
        }
      }
    }
    const std::pair<double, double> web[3] = {{5.0, 5.0}, {1.0, 5.0}, {1.0, 10.0}};
    for (const auto& [wifi, lte] : web) {
      for (const std::string& s : kPaperSchedulers) {
        corpus_.push_back(web_text(wifi, lte, s, 2, web_seed));
      }
    }

    // The slice the unit runs. Fig. 9: one homogeneous pair and two >= 4x
    // heterogeneous pairs, 180 s of video; the seed picks which path of each
    // heterogeneous pair is the slow one (mirrored cells cost within 3% of
    // each other, so the unit's size holds).
    const std::pair<double, double> het_a[2] = {{0.3, 4.2}, {4.2, 0.3}};
    const std::pair<double, double> het_b[2] = {{0.3, 8.6}, {8.6, 0.3}};
    const std::pair<double, double> pairs[3] = {{1.1, 1.1}, het_a[rng.pick(2)],
                                                het_b[rng.pick(2)]};
    for (const auto& [wifi, lte] : pairs) {
      for (const std::string& s : kPaperSchedulers) {
        add_cell({mps::WorkloadKind::kStream, wifi, lte, s, 0, 1},
                 stream_text(wifi, lte, s, 180.0, stream_seed));
      }
    }
    // Fig. 18: wget of 128 KB .. 1 MB, WiFi 1 Mbps, one seed-chosen LTE rate
    // of 1..10 Mbps, five runs per cell.
    const double lte = static_cast<double>(1 + rng.pick(10));
    for (const std::int64_t kb : {128, 256, 512, 1024}) {
      for (const std::string& s : kPaperSchedulers) {
        add_cell({mps::WorkloadKind::kDownload, 1.0, lte, s, kb * 1024, 5},
                 download_text(1.0, lte, s, kb * 1024, 5, dl_seed));
      }
    }
    // Fig. 20: web page loads on one seed-chosen configuration, two loads.
    const auto [ww, wl] = web[rng.pick(3)];
    for (const std::string& s : kPaperSchedulers) {
      add_cell({mps::WorkloadKind::kWeb, ww, wl, s, 0, 2}, web_text(ww, wl, s, 2, web_seed));
    }
  }

  UnitStats run_unit(Tracer& tr, LayerCounts* counts) override {
    UnitStats u;
    const std::int64_t t0 = now_ns();
    std::vector<mps::ScenarioSpec> parsed(corpus_.size());
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      {
        SpanScope s(tr, "scenario.parse");
        parsed[i] = mps::parse_scenario(corpus_[i]);
      }
      SpanScope s(tr, "scenario.build");
      mps::WorldBuilder builder(parsed[i]);
      const std::unique_ptr<mps::World> world = builder.build();
    }
    u.setup_end_ns = now_ns();
    u.setup_s = static_cast<double>(u.setup_end_ns - t0) * 1e-9;

    const std::size_t n = cells_.size();
    std::vector<const mps::ScenarioSpec*> specs(n);
    for (std::size_t i = 0; i < n; ++i) specs[i] = &parsed[cells_[i].corpus_index];
    std::vector<mps::ScenarioOutcome> outs(n);
    std::vector<std::unique_ptr<mps::FlightRecorder>> recs(n);
    mps::RunTelemetry tel;
    const std::int64_t r0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      mps::ScenarioRunOptions opts;
      opts.telemetry = &tel;
      // The recorder is plumbed through the streaming runner only.
      if (counts != nullptr && cells_[i].kind == mps::WorkloadKind::kStream) {
        recs[i] = std::make_unique<mps::FlightRecorder>();
        recs[i]->set_keep_decisions(cells_[i].sched == "ecf");
        opts.recorder = recs[i].get();
      }
      SpanScope s(tr, "sim.run");
      outs[i] = mps::run_scenario(*specs[i], opts);
    }
    u.run_s = since_s(r0);
    u.events = tel.events;

    std::vector<std::string> texts(n);
    for (std::size_t i = 0; i < n; ++i) {
      SpanScope s(tr, "exp.format");
      texts[i] = mps::format_outcome(*specs[i], outs[i]);
    }

    {
      SpanScope s(tr, "check");
      std::vector<HetObs> het;
      for (std::size_t i = 0; i < n; ++i) {
        const Cell& c = cells_[i];
        const mps::ScenarioOutcome& o = outs[i];
        std::string verdict;
        switch (c.kind) {
          case mps::WorkloadKind::kStream:
            verdict = check_stream({c.wifi, c.lte, o.streaming.mean_bitrate_mbps,
                                    o.streaming.mean_throughput_mbps});
            het.push_back({c.sched, c.wifi, c.lte, o.streaming.mean_bitrate_mbps});
            break;
          case mps::WorkloadKind::kDownload:
            verdict = check_download({c.wifi, c.lte, c.bytes, o.download_completions.min(),
                                      o.download_completions.count(),
                                      static_cast<std::size_t>(c.runs)});
            break;
          case mps::WorkloadKind::kWeb:
            verdict = check_web({o.web.mean_page_load_s, o.web.object_times.count()});
            break;
        }
        if (!verdict.empty()) verdict = specs[i]->name + ": " + verdict;
        const std::string same =
            first_.empty() ? std::string() : check_same(texts[i], first_[i], specs[i]->name);
        u.tally(first_failure({verdict, same}));
      }
      u.tally(check_ecf_claim(het));
      if (first_.empty()) first_ = texts;
    }
    u.wall_s = since_s(t0);

    if (counts != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const mps::ScenarioOutcome& o = outs[i];
        counts->chunks += static_cast<std::uint64_t>(o.streaming.chunks_fetched);
        counts->objects += o.web.object_times.count() + o.download_completions.count();
        if (!recs[i]) continue;
        counts->flows = 1;  // one connection per world
        add_recorder_counts(*recs[i], *counts);
        // Data segments that left a sender and were not dropped on a link.
        const mps::MetricsRegistry& m = recs[i]->metrics();
        counts->packets_delivered += m.total("subflow.segments_sent") -
                                     m.total("link.drops_queue") -
                                     m.total("link.drops_random") - m.total("link.drops_fault");
        u.tally(replay_ecf(*recs[i], *counts));
      }
    }
    return u;
  }

 private:
  struct Cell {
    mps::WorkloadKind kind;
    double wifi;
    double lte;
    std::string sched;
    std::int64_t bytes;
    int runs;
    std::size_t corpus_index = 0;
  };

  void add_cell(Cell c, const std::string& text) {
    const auto it = std::find(corpus_.begin(), corpus_.end(), text);
    if (it == corpus_.end()) throw std::logic_error("paper_grid: slice cell not in the corpus");
    c.corpus_index = static_cast<std::size_t>(it - corpus_.begin());
    cells_.push_back(c);
  }

  std::vector<std::string> corpus_;
  std::vector<Cell> cells_;  // the slice
  std::vector<std::string> first_;  // the first unit's outcome texts
};

// ---------------------------------------------------------------------------
// population: one bench_scale-shaped competing-traffic world.
class Population final : public Workload {
 public:
  explicit Population(std::uint64_t seed)
      : text_(traffic_text(shape(), SeedRng(seed).spec_seed())) {}

  // 100k flows: ~5.5 KB of state per flow, well past the last-level cache.
  static TrafficShape shape() { return {"default", 100000, 0.5}; }

  UnitStats run_unit(Tracer& tr, LayerCounts* counts) override {
    UnitStats u;
    const std::int64_t t0 = now_ns();
    TrafficCase tc;
    tc.set_up(tr, text_, counts != nullptr, false);
    u.setup_end_ns = now_ns();
    u.setup_s = static_cast<double>(u.setup_end_ns - t0) * 1e-9;
    u.events = tc.run(tr);
    u.run_s = tc.run_s;
    {
      SpanScope s(tr, "check");
      const std::string same = first_.empty() ? std::string() : check_same(tc.text, first_, "population");
      u.tally(first_failure({tc.check(shape()), same}));
      if (first_.empty()) first_ = tc.text;
    }
    std::int64_t count_ns = 0;
    if (counts != nullptr) {
      const std::int64_t c0 = now_ns();
      tc.count(*counts, shape().flows);
      count_ns = now_ns() - c0;
    }
    tc.tear_down();
    u.wall_s = static_cast<double>(now_ns() - t0 - count_ns) * 1e-9;
    return u;
  }

  // A small slice of the same shape under the InvariantChecker, untimed.
  void run_once(UnitStats& tally) override {
    TrafficShape small = shape();
    small.flows = 300;
    small.duration_s = 1.0;
    const mps::ScenarioSpec spec = mps::parse_scenario(traffic_text(small, 7));
    mps::FlightRecorder recorder;
    mps::WorldBuilder builder(spec);
    const std::unique_ptr<mps::World> world = builder.build(&recorder);
    mps::InvariantChecker checker(world->sim());
    mps::TrafficEngine engine(*world, builder.spec());
    engine.on_flow_start = [&checker](mps::Connection& c) { checker.watch(c); };
    engine.on_flow_end = [&checker](mps::Connection& c) { checker.unwatch(c); };
    const mps::TrafficResult res = engine.run();
    std::string verdict;
    if (!checker.ok()) verdict = "invariant slice: " + checker.report();
    else if (checker.checks_run() == 0) verdict = "invariant slice: no checks ran";
    else if (res.started < static_cast<std::size_t>(small.flows))
      verdict = "invariant slice: not every flow started";
    tally.tally(verdict);
  }

 private:
  std::string text_;
  std::string first_;
};

// ---------------------------------------------------------------------------
// Snapshot-and-fork: a traffic world run once unforked, then forked k ways
// at a late instant; and a shared-prefix vs scratch what-if grid.
struct ForkCase {
  TrafficShape shape;
  std::string traffic_text;
  double snapshot_at_s = 0.0;
  int forks = 0;
  std::string whatif_text;
  std::vector<std::string> whatif_schedulers;
  double switch_at_s = 0.0;
  bool record = false;  // traced units attach flight recorders (small worlds only)
};

UnitStats run_fork_case(const ForkCase& fc, Tracer& tr, LayerCounts* counts,
                        std::vector<std::string>* first) {
  UnitStats u;
  const std::int64_t t0 = now_ns();
  TrafficCase ref;
  const bool record = counts != nullptr && fc.record;
  ref.set_up(tr, fc.traffic_text, counts != nullptr, record);
  mps::ScenarioSpec whatif_spec;
  {
    SpanScope s(tr, "scenario.parse");
    whatif_spec = mps::parse_scenario(fc.whatif_text);
  }
  u.setup_end_ns = now_ns();
  u.setup_s = static_cast<double>(u.setup_end_ns - t0) * 1e-9;

  u.events = ref.run(tr);

  // A traced unit records every call the same way, so the fork call and the
  // unforked run it is compared with carry the same recorder cost.
  mps::RunTelemetry tel;
  mps::FlightRecorder recs[3];
  recs[0].set_keep_decisions(true);
  auto options = [&](int i) {
    mps::ScenarioRunOptions opts;
    opts.telemetry = &tel;
    if (record) opts.recorder = &recs[i];
    return opts;
  };
  std::vector<mps::ScenarioOutcome> forked;
  std::vector<mps::ScenarioOutcome> shared;
  std::vector<mps::ScenarioOutcome> scratch;
  const std::int64_t r0 = now_ns();
  {
    SpanScope s(tr, "exp.fork");
    forked = mps::run_scenario_fork_k(ref.spec, fc.snapshot_at_s, fc.forks, options(0), kSerial);
  }
  {
    SpanScope s(tr, "exp.whatif_shared");
    shared = mps::run_whatif_grid(whatif_spec, fc.whatif_schedulers, fc.switch_at_s, true,
                                  options(1), kSerial);
  }
  {
    SpanScope s(tr, "exp.whatif_scratch");
    scratch = mps::run_whatif_grid(whatif_spec, fc.whatif_schedulers, fc.switch_at_s, false,
                                   options(2), kSerial);
  }
  u.run_s = ref.run_s + since_s(r0);
  u.events += tel.events;

  std::vector<std::string> texts = {ref.text};
  for (const mps::ScenarioOutcome& o : forked) {
    SpanScope s(tr, "exp.format");
    texts.push_back(mps::format_outcome(ref.spec, o));
  }
  for (const auto* set : {&shared, &scratch}) {
    for (const mps::ScenarioOutcome& o : *set) {
      SpanScope s(tr, "exp.format");
      texts.push_back(mps::format_outcome(whatif_spec, o));
    }
  }

  {
    SpanScope s(tr, "check");
    const std::size_t k = forked.size();
    const std::size_t w = fc.whatif_schedulers.size();
    auto same_as_first = [&](std::size_t i) {
      return first->empty() ? std::string() : check_same(texts[i], (*first)[i], "repeat");
    };
    u.tally(first_failure({ref.check(fc.shape), same_as_first(0)}));
    const std::string fork_count =
        k == static_cast<std::size_t>(fc.forks) ? "" : "fork_k returned the wrong count";
    for (std::size_t j = 0; j < k; ++j) {
      u.tally(first_failure({fork_count, check_same(texts[1 + j], texts[0], "fork"),
                             same_as_first(1 + j)}));
    }
    const std::string whatif_count =
        shared.size() == w && scratch.size() == w ? "" : "what-if returned the wrong count";
    for (std::size_t j = 0; j < std::min({w, shared.size(), scratch.size()}); ++j) {
      u.tally(first_failure({whatif_count,
                             check_same(texts[1 + k + j], texts[1 + k + w + j],
                                        "what-if " + fc.whatif_schedulers[j]),
                             same_as_first(1 + k + j)}));
    }
    if (first->empty()) *first = texts;
  }
  std::int64_t count_ns = 0;
  if (counts != nullptr) {
    const std::int64_t c0 = now_ns();
    ref.count(*counts, fc.shape.flows);
    counts->forks = fc.forks;
    for (const auto* set : {&shared, &scratch}) {
      for (const mps::ScenarioOutcome& o : *set) {
        counts->chunks += static_cast<std::uint64_t>(o.streaming.chunks_fetched);
        counts->objects += o.download_completions.count();
      }
    }
    if (record) u.tally(replay_ecf(*ref.recorder, *counts));
    count_ns = now_ns() - c0;
  }
  ref.tear_down();
  u.wall_s = static_cast<double>(now_ns() - t0 - count_ns) * 1e-9;
  return u;
}

class ForkFanout final : public Workload {
 public:
  explicit ForkFanout(std::uint64_t seed) {
    SeedRng rng(seed);
    fc_.shape = {"ecf", 4000, 2.0};
    fc_.traffic_text = traffic_text(fc_.shape, rng.spec_seed());
    fc_.snapshot_at_s = 1.9;  // 95% of the run
    fc_.forks = 8;
    // A >= 4x heterogeneous Fig. 9 cell; the seed picks the slow path.
    const bool slow_wifi = rng.pick(2) == 0;
    fc_.whatif_text = stream_text(slow_wifi ? 0.3 : 1.7, slow_wifi ? 1.7 : 0.3, "default", 180.0,
                                  rng.spec_seed());
    fc_.whatif_schedulers = mps::scheduler_names();
    fc_.switch_at_s = 135.0;  // 75% of the video
  }

  UnitStats run_unit(Tracer& tr, LayerCounts* counts) override {
    return run_fork_case(fc_, tr, counts, &first_);
  }

 private:
  ForkCase fc_;
  std::vector<std::string> first_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_grid", "population", "fork_fanout"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_grid") return std::make_unique<PaperGrid>(seed);
  if (name == "population") return std::make_unique<Population>(seed);
  if (name == "fork_fanout") return std::make_unique<ForkFanout>(seed);
  return nullptr;
}

UnitStats run_probe(Tracer& tr, LayerCounts* counts) {
  static const char* kGilbertElliott =
      ", \"faults\": {\"gilbert_elliott\": {\"p_good_bad\": 0.02, \"p_bad_good\": 0.3,"
      " \"loss_good\": 0.0, \"loss_bad\": 0.6}}";
  ForkCase fc;
  fc.shape = {"ecf", 100, 1.0, kGilbertElliott};
  fc.traffic_text = traffic_text(fc.shape, 11);
  fc.snapshot_at_s = 0.9;
  fc.forks = 2;
  fc.whatif_text = download_text(1.0, 5.0, "default", 512 * 1024, 1, 11);
  fc.whatif_schedulers = {"default", "ecf"};
  fc.switch_at_s = 0.5;
  fc.record = true;
  std::vector<std::string> first;
  tr.set_unit(kProbeUnit);
  return run_fork_case(fc, tr, counts, &first);
}

double queue_ns_per_op(std::size_t pending, std::uint64_t seed) {
  // Packet events spread over a 200 ms horizon and, for one in eight pending
  // events, a timer set beyond it. Each round pops the earliest event and
  // schedules its successor (a packet hop); every other round also restarts
  // a timer (cancel + schedule), the RTO pattern. Timers are restarted well
  // before they come due, so the pending set keeps its size.
  constexpr std::int64_t kHorizonNs = 200'000'000;
  SeedRng rng(seed);
  mps::EventQueue q;
  std::int64_t now = 0;
  auto at = [&](std::int64_t base) {
    return mps::TimePoint::from_ns(now + base + 1 +
                                   static_cast<std::int64_t>(rng.next() % kHorizonNs));
  };
  // The initial set is scheduled in time order, as a running simulation
  // fills its queue. (The first event scheduled into an empty wheel sets the
  // cursor; earlier events scheduled after it would all pile into the
  // cursor's sorted bucket, whose inserts are O(n) -- a separate cliff, not
  // the steady-state churn this figure measures.)
  std::vector<mps::EventId> timers(std::max<std::size_t>(1, pending / 8));
  std::vector<mps::TimePoint> fill;
  for (std::size_t i = timers.size(); i < pending; ++i) fill.push_back(at(0));
  std::sort(fill.begin(), fill.end());
  for (const mps::TimePoint t : fill) q.schedule(t, [] {});
  for (mps::EventId& t : timers) t = q.schedule(at(kHorizonNs), [] {});
  const std::size_t rounds = std::max<std::size_t>(400'000, 8 * pending);
  std::uint64_t ops = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t r = 0; r < rounds; ++r) {
    now = q.pop().when.ns();
    q.schedule(at(0), [] {});
    ops += 2;
    if ((r & 1) == 0) {
      mps::EventId& t = timers[(r >> 1) % timers.size()];
      q.cancel(t);
      t = q.schedule(at(kHorizonNs), [] {});
      ops += 2;
    }
  }
  const std::int64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(ops);
}

}  // namespace ecfbench
