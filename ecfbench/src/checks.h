// Property checks on the program's outputs, computed apart from the program:
// every bound below is derived from the benchmark's own inputs (the rates it
// wrote into the spec text, the paper's Table 1 ladder restated here), never
// from a value the simulator reports about itself. Each check returns an
// empty string when the property holds and a one-line reason when it does
// not; the workloads count a failing check as a failed operation.
//
// negative_controls() feeds every check a fabricated outcome that breaks its
// property and reports each check that failed to notice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/decision.h"

namespace ecfbench {

// Paper Table 1: the lowest and highest rendition of the DASH ladder (Mbps).
inline constexpr double kLadderLowMbps = 0.26;
inline constexpr double kLadderHighMbps = 8.47;

// One streaming cell: regulated path rates and the measured outcome.
struct StreamObs {
  double wifi_mbps = 0.0;
  double lte_mbps = 0.0;
  double bitrate_mbps = 0.0;     // mean rendition bit rate
  double throughput_mbps = 0.0;  // mean delivered throughput
};
// Bit rate within [0.26, min(wifi+lte, 8.47)]; throughput <= wifi+lte.
std::string check_stream(const StreamObs& o);

// One download cell: no run can finish faster than the aggregate capacity
// allows, bytes*8 / (wifi+lte).
struct DownloadObs {
  double wifi_mbps = 0.0;
  double lte_mbps = 0.0;
  std::int64_t bytes = 0;
  double min_completion_s = 0.0;  // fastest of the cell's runs
  std::size_t runs = 0;           // completion samples reported
  std::size_t runs_expected = 0;
};
std::string check_download(const DownloadObs& o);

// One web cell: every page load finished, with objects fetched.
struct WebObs {
  double mean_page_load_s = 0.0;
  std::size_t objects = 0;
};
std::string check_web(const WebObs& o);

// The paper's Fig. 9 claim on strongly heterogeneous paths: over the cells
// whose rates differ by at least 4x, ECF's mean measured/ideal bit rate is at
// least the default scheduler's. ideal = min(wifi+lte, 8.47).
struct HetObs {
  std::string scheduler;
  double wifi_mbps = 0.0;
  double lte_mbps = 0.0;
  double bitrate_mbps = 0.0;
};
std::string check_ecf_claim(const std::vector<HetObs>& cells);

// One competing-traffic run, with the capacity and flow limits taken from
// the spec the benchmark wrote.
struct TrafficObs {
  double capacity_mbps = 0.0;  // sum of the spec's downlink rates
  std::int64_t flows = 0;      // spec: flows present at t = 0
  std::int64_t max_arrivals = 0;
  double goodput_mbps = 0.0;  // aggregate goodput the run reports
  std::size_t started = 0;
  std::size_t completed = 0;
  double jain = 0.0;
  std::uint64_t mux_routed = 0;   // down + up mux
  std::uint64_t mux_orphans = 0;  // down + up mux
  std::uint64_t link_delivered = 0;  // down + up links
};
// goodput <= capacity; flows <= started <= flows + max_arrivals;
// completed <= started; jain in (0, 1]; routed + orphans == delivered.
std::string check_traffic(const TrafficObs& o);

// Byte equality of two rendered outcomes (repeated units, forks vs the
// unforked run, shared-prefix vs scratch what-if).
std::string check_same(const std::string& got, const std::string& want, const std::string& what);

// Replays every decision that carries ECF Algorithm 1 terms through
// mps::ecf_decide and requires the logged choice: a logged wait replays as
// kWait, a logged pick as anything else.
std::string check_ecf_replay(const std::vector<mps::SchedDecision>& decisions);

// Runs each check on a fabricated violating input (and a passing one). The
// return value counts the controls that misbehaved; `report` names them.
int negative_controls(std::string* report);

}  // namespace ecfbench
