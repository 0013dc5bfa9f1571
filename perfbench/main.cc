// The simulator benchmark program: runs one workload for a given host-time
// budget and prints its metrics as one JSON line. perfbench/run.py builds
// and invokes it; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --mode MODE [--spans PATH]
//
// Modes:
//   timed      warm-up pass, then untraced passes until S seconds have gone;
//              prints the end-to-end metrics.
//   traced     warm-up pass, then alternating untraced and traced passes
//              (trace=attrib on, spans recorded, layer probes run) for S
//              seconds; prints the per-layer metrics and writes the spans.
//   verify     one pass with a ValidationSink on every session collective;
//              prints core.verify_ms.
//   reference  one untraced pass at the committed results' sizes and seeds;
//              prints per-cell MB/s and the tenant slowdown percentiles.
// Every mode prints the pass fingerprint, so the caller can check that
// processes, modes and trace settings agree on every simulated statistic.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/calibration.h"
#include "perfbench/pass.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// A run never reports fewer measured passes than this, however long a pass is.
constexpr std::size_t kMinPasses = 3;
// Timed runs measure the host's speed at most this often (see RunTimedPasses).
constexpr std::int64_t kScaleIntervalNs = 1'000'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "timed";
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--mode timed|traced|verify|reference [--spans PATH]\n",
               why);
  std::exit(2);
}

bool ParseUint(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) {
        Usage("--seed wants a non-negative integer");
      }
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &number) || number == 0 || number > 3600) {
        Usage("--seconds wants an integer in [1, 3600]");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  if (args.mode != "timed" && args.mode != "traced" && args.mode != "verify" &&
      args.mode != "reference") {
    Usage("unknown --mode");
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (q in [0, 1]), as bench/validation_multitenant
// computes its slowdown percentiles.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t index = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(index == 0 ? 0 : index - 1, v.size() - 1)];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Output: {"correct", "attempted", "failed", "fingerprint", "metrics", "notes", "cells"}.
class Report {
 public:
  void Metric(const char* name, double value, const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name, value,
                  unit);
    metrics_.push_back(buf);
  }
  void Note(const std::string& text) { notes_.push_back("\"" + text + "\""); }
  void Cell(const std::string& label, double value) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", label.c_str(), value);
    cells_.push_back(buf);
  }
  void Error(const std::string& text) {
    std::fprintf(stderr, "perfbench: %s\n", text.c_str());
    correct_ = false;
  }
  void Count(const PassResult& pass) {
    attempted_ += pass.attempted;
    failed_ += pass.failed;
    for (const std::string& e : pass.errors) {
      Error(e);
    }
  }
  void set_fingerprint(std::uint64_t fp) { fingerprint_ = fp; }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"fingerprint\": "
                "\"%016llx\", \"metrics\": {%s}, \"notes\": [%s], \"cells\": {%s}}\n",
                correct_ && failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(fingerprint_), Join(metrics_).c_str(),
                Join(notes_).c_str(), Join(cells_).c_str());
  }

 private:
  static std::string Join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) {
      out += (out.empty() ? "" : ", ") + p;
    }
    return out;
  }

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::string> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> cells_;
};

// The simulated statistics of every pass must match the first pass's.
void CheckSame(const PassResult& reference, const PassResult& pass, const char* what,
               Report* report) {
  if (pass.fingerprint != reference.fingerprint) {
    report->Error(std::string("simulated statistics differ between passes (") + what + ")");
  }
}

double SimMbps(const LayerTotals& t) {
  return Ratio(static_cast<double>(t.file_bytes), static_cast<double>(t.elapsed_ns) / 1e9) /
         1e6;
}

// The worst tenant's median shared/isolated slowdown; 1 when the workload
// has a single tenant (a job that shares with nobody runs at its own pace).
double WorstSlowdown(const PassResult& pass, double q) {
  double worst = pass.tenant_slowdowns.empty() ? 1.0 : 0.0;
  for (const std::vector<double>& samples : pass.tenant_slowdowns) {
    worst = std::max(worst, Percentile(samples, q));
  }
  return worst;
}

// Runs passes until `seconds` have gone and at least kMinPasses of each kind
// ran. With `with_trace`, untraced and traced passes alternate. With
// `calibration`, it is measured before the first untraced pass, then after a
// pass once kScaleIntervalNs have gone since the last measurement, and after
// the last pass; `scales` gets per pass the mean of the two measurements
// around its interval. The kernels evict L2, so measuring at most once a
// second leaves most trials and set-ups to start on warm caches.
void RunTimedPasses(const Workload& w, double seconds, SpanRecorder* spans, int* trial,
                    std::vector<PassResult>* plain, std::vector<PassResult>* with_trace,
                    Calibration* calibration = nullptr, std::vector<double>* scales = nullptr) {
  const std::int64_t start = HostNowNs();
  auto more = [&] {
    return plain->size() < kMinPasses ||
           (with_trace != nullptr && with_trace->size() < kMinPasses) ||
           static_cast<double>(HostNowNs() - start) / 1e9 < seconds;
  };
  double before = 0;
  std::int64_t measured_at = 0;
  auto measure = [&] {
    const double after = calibration->Measure();
    scales->resize(plain->size(), (before + after) / 2);
    before = after;
    measured_at = HostNowNs();
  };
  if (calibration != nullptr) {
    before = calibration->Measure();
    measured_at = HostNowNs();
  }
  while (more()) {
    plain->push_back(RunPass(w, PassOptions{}, trial));
    if (with_trace != nullptr) {
      with_trace->push_back(RunPass(w, PassOptions{true, false, spans}, trial));
    }
    if (calibration != nullptr && HostNowNs() - measured_at >= kScaleIntervalNs) {
      measure();
    }
  }
  if (calibration != nullptr && scales->size() < plain->size()) {
    measure();
  }
}

void TimedMode(const Workload& w, const Args& args, Report* report) {
  Calibration calibration;
  int trial = 0;
  // Warm-up: fills the frame pools and allocator caches; also the reference
  // fingerprint every measured pass must reproduce.
  const PassResult warm = RunPass(w, PassOptions{}, &trial);
  report->Count(warm);
  std::vector<PassResult> passes;
  std::vector<double> scales;
  RunTimedPasses(w, args.seconds, nullptr, &trial, &passes, nullptr, &calibration, &scales);

  // Host times at the reference speed (see calibration.h): every time of a
  // pass times the pass's speed scale. The unscaled median goes into a note.
  std::vector<double> wall_s;
  std::vector<double> setup_s;
  std::vector<double> trial_ms;
  std::vector<double> raw_trial_ms;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    report->Count(pass);
    CheckSame(warm, pass, "timed", report);
    for (std::int64_t ns : pass.trial_ns) {
      trial_ms.push_back(static_cast<double>(ns) / 1e6 * scales[p]);
      raw_trial_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    wall_s.push_back(static_cast<double>(pass.wall_ns) / 1e9 * scales[p]);
    setup_s.push_back(static_cast<double>(pass.setup_ns) / 1e9 * scales[p]);
  }
  const double q = w.tail_percentile / 100.0;
  report->Metric("wall_s", Median(wall_s), "s");
  report->Metric("trial_ms.p50", Median(trial_ms), "ms");
  report->Metric("trial_ms.tail", Percentile(trial_ms, q), "ms");
  report->Metric("peak_rss_mb", PeakRssMb() - Calibration::Bytes() / (1024.0 * 1024.0), "MB");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("sim_mbps", SimMbps(warm.totals), "MB/s");
  report->Metric("tenant_slowdown.worst", WorstSlowdown(warm, 0.5), "x");
  const std::size_t n = trial_ms.size();
  const std::size_t beyond = n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  report->Note("trial_ms.tail is p" + std::to_string(static_cast<int>(w.tail_percentile)) +
               " of " + std::to_string(n) + " trials (" + std::to_string(beyond) +
               " beyond it) over " + std::to_string(passes.size()) + " passes");
  char raw[160];
  std::snprintf(raw, sizeof(raw), "unscaled: trial_ms.p50 %.3f ms; median speed scale %.4f",
                Median(raw_trial_ms), Median(scales));
  report->Note(raw);
  report->set_fingerprint(warm.fingerprint);
}

void TracedMode(const Workload& w, const Args& args, Report* report) {
  SpanRecorder spans;
  int trial = 0;
  const PassResult warm = RunPass(w, PassOptions{}, &trial);
  report->Count(warm);
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  RunTimedPasses(w, args.seconds, &spans, &trial, &plain, &traced);
  for (const PassResult& pass : plain) {
    report->Count(pass);
    CheckSame(warm, pass, "untraced", report);
  }
  for (const PassResult& pass : traced) {
    report->Count(pass);
    CheckSame(warm, pass, "traced vs untraced", report);
  }

  // Host times: median over traced passes of each pass's total.
  auto median_ms = [&](const char* span) {
    std::vector<double> v;
    for (const PassResult& p : traced) {
      v.push_back(static_cast<double>(spans.TotalNs(span, p.first_span, p.last_span)) / 1e6);
    }
    return Median(v);
  };
  auto ns_per = [&](const char* span, auto count_of) {
    double ns = 0;
    double n = 0;
    for (const PassResult& p : traced) {
      ns += static_cast<double>(spans.TotalNs(span, p.first_span, p.last_span));
      n += static_cast<double>(count_of(p));
    }
    return Ratio(ns, n);
  };
  // Tracing overhead: each traced pass against the untraced pass run just
  // before it, leaving out the probes (extra work, not overhead).
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(static_cast<double>(traced[i].wall_ns - traced[i].probe_ns) /
                           static_cast<double>(plain[i].wall_ns) -
                       1.0);
  }

  const LayerTotals& t = traced.front().totals;
  const double ms = 1e6;
  report->Metric("sim.events", static_cast<double>(t.events), "count");
  report->Metric("sim.fifo_events", static_cast<double>(t.fifo_events), "count");
  report->Metric("sim.timed_events", static_cast<double>(t.timed_events), "count");
  report->Metric("sim.max_queue_depth", static_cast<double>(t.max_queue_depth), "count");
  report->Metric("sim.calendar_resizes", static_cast<double>(t.calendar_resizes), "count");
  report->Metric("sim.host_ns_per_event",
                 ns_per("core.run_phase", [](const PassResult& p) { return p.totals.events; }),
                 "ns");
  // From an untraced pass: tracing adds frames (see AddMachine in pass.cc).
  report->Metric("sim.frame_allocs", static_cast<double>(plain.front().totals.frame_allocs),
                 "count");
  // Hit ratio of the warm pool in the traced passes; pool_hits are process
  // state, so they are read here and kept out of the fingerprint.
  report->Metric("sim.frame_pool_hit_ratio", traced.front().frame_pool_hit_ratio, "ratio");
  report->Metric("net.messages", static_cast<double>(t.messages), "count");
  report->Metric("net.data_bytes", static_cast<double>(t.data_bytes), "bytes");
  report->Metric("net.wire_bytes", static_cast<double>(t.wire_bytes), "bytes");
  report->Metric("net.sim_nic_ms", static_cast<double>(t.nic_ns) / ms, "ms");
  report->Metric("net.sim_network_ms", static_cast<double>(t.network_ns) / ms, "ms");
  report->Metric("net.route_ns",
                 ns_per("net.route", [](const PassResult& p) { return p.routes; }), "ns");
  report->Metric("disk.requests", static_cast<double>(t.disk_requests), "count");
  report->Metric("disk.seeks", static_cast<double>(t.seeks), "count");
  report->Metric("disk.seek_cylinders", static_cast<double>(t.seek_cylinders), "count");
  report->Metric("disk.stream_hit_ratio",
                 Ratio(static_cast<double>(t.stream_hits), static_cast<double>(t.disk_requests)),
                 "ratio");
  report->Metric("disk.util_avg",
                 Ratio(t.disk_util_sum, static_cast<double>(traced.front().attempted)),
                 "ratio");
  report->Metric("disk.sim_position_ms", static_cast<double>(t.position_ns) / ms, "ms");
  report->Metric("disk.sim_transfer_ms", static_cast<double>(t.transfer_ns) / ms, "ms");
  report->Metric("disk.access_ns",
                 ns_per("disk.access", [](const PassResult& p) { return p.disk_accesses; }),
                 "ns");
  report->Metric("tc.requests", static_cast<double>(t.tc_requests), "count");
  report->Metric("tc.hit_ratio",
                 Ratio(static_cast<double>(t.tc_hits),
                       static_cast<double>(t.tc_hits + t.tc_misses)),
                 "ratio");
  report->Metric("tc.prefetches", static_cast<double>(t.tc_prefetches), "count");
  report->Metric("tc.flushes", static_cast<double>(t.tc_flushes), "count");
  report->Metric("tc.rmw_flushes", static_cast<double>(t.tc_rmw_flushes), "count");
  report->Metric("tc.sim_cache_stall_ms", static_cast<double>(t.tc_stall_ns) / ms, "ms");
  report->Metric("ddio.pieces", static_cast<double>(t.ddio_pieces), "count");
  report->Metric("ddio.bytes_delivered", static_cast<double>(t.ddio_bytes), "bytes");
  report->Metric("twophase.requests", static_cast<double>(t.twophase_requests), "count");
  report->Metric("pattern.chunks", static_cast<double>(t.chunks), "count");
  report->Metric("pattern.pieces", static_cast<double>(t.pieces), "count");
  report->Metric("pattern.walk_ms", median_ms("pattern.walk"), "ms");
  report->Metric("fs.layout_ms", median_ms("fs.layout"), "ms");
  report->Metric("core.machine_build_ms", median_ms("core.machine_build"), "ms");
  report->Metric("core.fs_start_ms", median_ms("core.fs_start"), "ms");
  report->Metric("core.run_phase_ms", median_ms("core.run_phase"), "ms");
  report->Metric("core.cp_cpu_util_max", t.cp_util_max, "ratio");
  report->Metric("core.iop_cpu_util_max", t.iop_util_max, "ratio");
  report->Metric("core.bus_util_max", t.bus_util_max, "ratio");
  report->Metric("core.sim_compute_ms", static_cast<double>(t.compute_ns) / ms, "ms");
  const double trials = static_cast<double>(std::max<std::uint64_t>(t.tenant_trials, 1));
  double busy_max = 0;
  double busy_min = 0;
  if (!t.weighted_disk_busy_ns.empty()) {
    busy_max = *std::max_element(t.weighted_disk_busy_ns.begin(), t.weighted_disk_busy_ns.end());
    busy_min = *std::min_element(t.weighted_disk_busy_ns.begin(), t.weighted_disk_busy_ns.end());
  }
  report->Metric("tenant.admit_wait_ms", static_cast<double>(t.admit_wait_ns) / trials / ms, "ms");
  report->Metric("tenant.disk_share_spread", Ratio(busy_max, busy_min), "ratio");
  report->Metric("tenant.finish_spread_ms", static_cast<double>(t.finish_spread_ns) / trials / ms,
                 "ms");
  report->Metric("obs.trace_overhead", Median(overhead), "ratio");
  report->Note("traced " + std::to_string(traced.size()) + " passes against " +
               std::to_string(plain.size()) + " untraced; " +
               std::to_string(spans.spans().size()) + " spans");
  report->set_fingerprint(warm.fingerprint);
  if (!args.spans_path.empty() && !spans.WriteChromeTrace(args.spans_path)) {
    report->Error("cannot write spans to " + args.spans_path);
  }
}

void VerifyMode(const Workload& w, Report* report) {
  SpanRecorder spans;
  int trial = 0;
  const PassResult pass = RunPass(w, PassOptions{false, true, &spans}, &trial);
  report->Count(pass);
  const std::int64_t verify_ns = spans.TotalNs("core.verify", pass.first_span, pass.last_span);
  report->Metric("core.verify_ms", static_cast<double>(verify_ns) / 1e6, "ms");
  report->set_fingerprint(pass.fingerprint);
}

void ReferenceMode(const Workload& w, Report* report) {
  int trial = 0;
  const PassResult pass = RunPass(w, PassOptions{}, &trial);
  report->Count(pass);
  for (const auto& [label, mbps] : pass.cell_mbps) {
    double sum = 0;
    for (double v : mbps) {
      sum += v;
    }
    report->Cell(label, sum / static_cast<double>(mbps.size()));
  }
  if (w.multi_tenant) {
    report->Cell("worst_p50", WorstSlowdown(pass, 0.50));
    report->Cell("worst_p99", WorstSlowdown(pass, 0.99));
  }
  report->set_fingerprint(pass.fingerprint);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Workload workload;
  std::string error;
  const Scale scale = args.mode == "reference" ? Scale::kReference : Scale::kBench;
  if (!MakeWorkload(args.workload, args.seed, scale, &workload, &error)) {
    Usage(error.c_str());
  }
  Report report;
  if (args.mode == "timed") {
    TimedMode(workload, args, &report);
  } else if (args.mode == "traced") {
    TracedMode(workload, args, &report);
  } else if (args.mode == "verify") {
    VerifyMode(workload, &report);
  } else {
    ReferenceMode(workload, &report);
  }
  report.Print();
  return 0;
}
