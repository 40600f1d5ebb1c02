#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/ecf.h"

namespace ecfbench {
namespace {

// Relative slack for comparisons against bounds computed in floating point.
constexpr double kSlack = 1e-9;

bool le(double a, double b) { return a <= b * (1.0 + kSlack) + kSlack; }

std::string fmt(const char* f, double a, double b, double c = 0.0) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

double ideal_mbps(double wifi, double lte) { return std::min(wifi + lte, kLadderHighMbps); }

}  // namespace

std::string check_stream(const StreamObs& o) {
  const double cap = o.wifi_mbps + o.lte_mbps;
  if (!(o.bitrate_mbps >= kLadderLowMbps * (1.0 - kSlack)))
    return fmt("stream bitrate %.4f below the lowest rendition %.2f", o.bitrate_mbps,
               kLadderLowMbps);
  if (!le(o.bitrate_mbps, ideal_mbps(o.wifi_mbps, o.lte_mbps)))
    return fmt("stream bitrate %.4f above min(capacity %.2f, 8.47)", o.bitrate_mbps, cap);
  if (!(o.throughput_mbps >= 0.0) || !le(o.throughput_mbps, cap))
    return fmt("stream throughput %.4f outside [0, capacity %.2f]", o.throughput_mbps, cap);
  return {};
}

std::string check_download(const DownloadObs& o) {
  if (o.runs != o.runs_expected)
    return fmt("download reported %.0f runs, expected %.0f", static_cast<double>(o.runs),
               static_cast<double>(o.runs_expected));
  const double bound_s =
      static_cast<double>(o.bytes) * 8.0 / ((o.wifi_mbps + o.lte_mbps) * 1e6);
  if (!(o.min_completion_s >= bound_s * (1.0 - kSlack)))
    return fmt("download finished in %.4f s, faster than bytes*8/capacity = %.4f s",
               o.min_completion_s, bound_s);
  return {};
}

std::string check_web(const WebObs& o) {
  if (o.objects == 0) return "web page load fetched no objects";
  if (!(o.mean_page_load_s > 0.0) || !std::isfinite(o.mean_page_load_s))
    return fmt("web page load time %.4f is not a positive finite time", o.mean_page_load_s, 0.0);
  return {};
}

std::string check_ecf_claim(const std::vector<HetObs>& cells) {
  double sum[2] = {0.0, 0.0};
  int n[2] = {0, 0};
  for (const HetObs& c : cells) {
    const double ratio = std::max(c.wifi_mbps, c.lte_mbps) / std::min(c.wifi_mbps, c.lte_mbps);
    if (ratio < 4.0) continue;
    const int side = c.scheduler == "ecf" ? 0 : c.scheduler == "default" ? 1 : -1;
    if (side < 0) continue;
    sum[side] += c.bitrate_mbps / ideal_mbps(c.wifi_mbps, c.lte_mbps);
    ++n[side];
  }
  if (n[0] == 0 || n[0] != n[1]) return "Fig. 9 claim: no matched ecf/default heterogeneous cells";
  const double ecf = sum[0] / n[0];
  const double def = sum[1] / n[1];
  if (!(ecf >= def)) return fmt("Fig. 9 claim: ecf measured/ideal %.4f < default %.4f", ecf, def);
  return {};
}

std::string check_traffic(const TrafficObs& o) {
  if (!(o.goodput_mbps >= 0.0) || !le(o.goodput_mbps, o.capacity_mbps))
    return fmt("traffic goodput %.4f outside [0, capacity %.2f]", o.goodput_mbps, o.capacity_mbps);
  const auto flows = static_cast<std::size_t>(o.flows);
  if (o.started < flows || o.started > flows + static_cast<std::size_t>(o.max_arrivals))
    return fmt("traffic started %.0f flows, outside [%.0f, flows + max_arrivals]",
               static_cast<double>(o.started), static_cast<double>(flows));
  if (o.completed > o.started)
    return fmt("traffic completed %.0f > started %.0f", static_cast<double>(o.completed),
               static_cast<double>(o.started));
  if (!(o.jain > 0.0) || !le(o.jain, 1.0)) return fmt("traffic Jain index %.6f outside (0, 1]", o.jain, 0.0);
  if (o.mux_routed + o.mux_orphans != o.link_delivered)
    return fmt("mux routed %.0f + orphans %.0f != links delivered %.0f",
               static_cast<double>(o.mux_routed), static_cast<double>(o.mux_orphans),
               static_cast<double>(o.link_delivered));
  return {};
}

std::string check_same(const std::string& got, const std::string& want, const std::string& what) {
  if (got == want) return {};
  return what + ": outcome text differs from the reference";
}

std::string check_ecf_replay(const std::vector<mps::SchedDecision>& decisions) {
  std::size_t replayed = 0;
  std::size_t wrong = 0;
  for (const mps::SchedDecision& d : decisions) {
    if (!d.has_ecf_terms) continue;
    ++replayed;
    const mps::EcfDecision v =
        mps::ecf_decide(d.k_packets, d.cwnd_f, d.ssthresh_f, d.cwnd_s, d.ssthresh_s, d.rtt_f_s,
                        d.rtt_s_s, d.delta_s, d.waiting, d.beta, d.staged_f, d.staged_s);
    const bool wait = d.kind == mps::SchedDecision::Kind::kWait;
    if (wait != (v == mps::EcfDecision::kWait)) ++wrong;
  }
  if (wrong == 0) return {};
  return fmt("ecf replay: %.0f of %.0f logged decisions replay differently",
             static_cast<double>(wrong), static_cast<double>(replayed));
}

int negative_controls(std::string* report) {
  int bad = 0;
  // `expect_fail` says whether the fabricated input breaks the property.
  auto control = [&](const char* name, const std::string& verdict, bool expect_fail) {
    if (verdict.empty() == !expect_fail) return;
    ++bad;
    *report += std::string(name) + (expect_fail ? ": fabricated violation passed\n"
                                                : ": valid input failed: " + verdict + "\n");
  };

  const StreamObs stream_ok{0.3, 4.2, 2.6, 2.9};
  control("stream ok", check_stream(stream_ok), false);
  StreamObs s = stream_ok;
  s.bitrate_mbps = 0.2;  // below the lowest rendition
  control("stream low bitrate", check_stream(s), true);
  s = stream_ok;
  s.bitrate_mbps = 4.6;  // above capacity 4.5
  control("stream bitrate > capacity", check_stream(s), true);
  s = {8.6, 8.6, 8.6, 8.0};  // above the top rendition
  control("stream bitrate > ladder", check_stream(s), true);
  s = stream_ok;
  s.throughput_mbps = 4.7;
  control("stream throughput > capacity", check_stream(s), true);

  const DownloadObs dl_ok{1.0, 5.0, 1024 * 1024, 2.9, 5, 5};
  control("download ok", check_download(dl_ok), false);
  DownloadObs d = dl_ok;
  d.min_completion_s = 1.3;  // bound is 8 Mbit / 6 Mbps = 1.398 s
  control("download faster than capacity", check_download(d), true);
  d = dl_ok;
  d.runs = 4;
  control("download missing run", check_download(d), true);

  control("web ok", check_web({3.1, 80}), false);
  control("web no objects", check_web({3.1, 0}), true);
  control("web zero load time", check_web({0.0, 80}), true);

  const std::vector<HetObs> het_ok = {{"ecf", 0.3, 4.2, 2.8}, {"default", 0.3, 4.2, 1.2},
                                      {"ecf", 1.1, 1.1, 1.0}, {"default", 1.1, 1.1, 2.0}};
  control("fig9 claim ok", check_ecf_claim(het_ok), false);
  std::vector<HetObs> het = het_ok;
  std::swap(het[0].bitrate_mbps, het[1].bitrate_mbps);  // default beats ECF
  control("fig9 claim inverted", check_ecf_claim(het), true);

  const TrafficObs tr_ok{1440.0, 30000, 3000, 1300.0, 31000, 2500, 0.7, 900, 100, 1000};
  control("traffic ok", check_traffic(tr_ok), false);
  TrafficObs t = tr_ok;
  t.goodput_mbps = 1500.0;
  control("traffic goodput > capacity", check_traffic(t), true);
  t = tr_ok;
  t.started = 29999;
  control("traffic started < flows", check_traffic(t), true);
  t = tr_ok;
  t.started = 33001;
  control("traffic started > flows + arrivals", check_traffic(t), true);
  t = tr_ok;
  t.completed = 31001;
  control("traffic completed > started", check_traffic(t), true);
  t = tr_ok;
  t.jain = 0.0;
  control("traffic jain 0", check_traffic(t), true);
  t = tr_ok;
  t.jain = 1.01;
  control("traffic jain > 1", check_traffic(t), true);
  t = tr_ok;
  t.mux_orphans = 99;
  control("traffic mux conservation", check_traffic(t), true);

  control("same ok", check_same("a\n", "a\n", "unit"), false);
  control("same differs", check_same("bitrate 2.61", "bitrate 2.62", "unit"), true);

  // A wait the terms justify, then the same terms logged as a pick.
  mps::SchedDecision dec;
  dec.has_ecf_terms = true;
  dec.k_packets = 100.0;
  dec.cwnd_f = dec.ssthresh_f = 10.0;
  dec.cwnd_s = dec.ssthresh_s = 10.0;
  dec.rtt_f_s = 0.02;
  dec.rtt_s_s = 1.0;
  dec.beta = 0.25;
  const bool terms_wait =
      mps::ecf_decide(dec.k_packets, dec.cwnd_f, dec.ssthresh_f, dec.cwnd_s, dec.ssthresh_s,
                      dec.rtt_f_s, dec.rtt_s_s, dec.delta_s, dec.waiting, dec.beta) ==
      mps::EcfDecision::kWait;
  dec.kind = terms_wait ? mps::SchedDecision::Kind::kWait : mps::SchedDecision::Kind::kPick;
  control("ecf replay ok", check_ecf_replay({dec}), false);
  dec.kind = terms_wait ? mps::SchedDecision::Kind::kPick : mps::SchedDecision::Kind::kWait;
  control("ecf replay flipped", check_ecf_replay({dec}), true);
  return bad;
}

}  // namespace ecfbench
