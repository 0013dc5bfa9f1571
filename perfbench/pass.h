// One pass: every trial of a workload, run once, with its host times,
// simulated statistics and layer counts.

#ifndef PERFBENCH_PASS_H_
#define PERFBENCH_PASS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

struct PassOptions {
  // Turns the simulator's trace=attrib plane on and runs the layer probes
  // (pattern walk, route computation, disk-model replay).
  bool traced = false;
  // Installs a ValidationSink on every session collective and verifies the
  // realized data image against the pattern.
  bool verify = false;
  SpanRecorder* spans = nullptr;  // Null: time calls without recording spans.
};

// Simulated statistics and layer counts summed over a pass. Every field is a
// pure function of the workload and its seeds.
struct LayerTotals {
  // sim
  std::uint64_t events = 0;
  std::uint64_t fifo_events = 0;
  std::uint64_t timed_events = 0;
  std::uint64_t max_queue_depth = 0;  // Max over sessions.
  std::uint64_t calendar_resizes = 0;
  std::uint64_t frame_allocs = 0;
  // net
  std::uint64_t messages = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t wire_bytes = 0;
  // disk
  std::uint64_t disk_requests = 0;
  std::uint64_t seeks = 0;
  std::uint64_t seek_cylinders = 0;
  std::uint64_t stream_hits = 0;
  double disk_util_sum = 0;  // Over every collective of the pass.
  // Attribution buckets (traced passes only).
  std::uint64_t position_ns = 0;
  std::uint64_t transfer_ns = 0;
  std::uint64_t nic_ns = 0;
  std::uint64_t network_ns = 0;
  std::uint64_t compute_ns = 0;
  // tc / ddio / twophase
  std::uint64_t tc_requests = 0;
  std::uint64_t tc_hits = 0;
  std::uint64_t tc_misses = 0;
  std::uint64_t tc_prefetches = 0;
  std::uint64_t tc_flushes = 0;
  std::uint64_t tc_rmw_flushes = 0;
  std::uint64_t tc_stall_ns = 0;
  std::uint64_t ddio_pieces = 0;
  std::uint64_t ddio_bytes = 0;
  std::uint64_t twophase_requests = 0;
  // pattern (traced passes only)
  std::uint64_t chunks = 0;
  std::uint64_t pieces = 0;
  // core: utilization maxima over collectives
  double cp_util_max = 0;
  double iop_util_max = 0;
  double bus_util_max = 0;
  // tenant (multi-tenant workload; shared runs only)
  std::uint64_t tenant_trials = 0;
  std::uint64_t admit_wait_ns = 0;
  std::uint64_t finish_spread_ns = 0;
  std::vector<double> weighted_disk_busy_ns;  // Per tenant, busy / weight.
  // The paper's metric, over the collectives that define sim_mbps.
  std::uint64_t file_bytes = 0;
  std::uint64_t elapsed_ns = 0;
};

struct PassResult {
  std::int64_t wall_ns = 0;
  std::int64_t setup_ns = 0;  // Session ctor + FileFor + ActivateFileSystem, summed.
  std::vector<std::int64_t> trial_ns;
  // Host time of the layer probes (traced passes), which are extra work and
  // so are left out of the tracing overhead.
  std::int64_t probe_ns = 0;
  std::uint64_t routes = 0;         // AppendRoute calls timed.
  std::uint64_t disk_accesses = 0;  // DiskModel::Access calls timed.
  std::uint64_t probe_checksum = 0;  // Consumes probe results so they are computed.
  // Share of this pass's coroutine frames served from the frame pool's free
  // lists. Process state, not simulation state: kept out of the fingerprint.
  double frame_pool_hit_ratio = 0;
  std::size_t first_span = 0;       // This pass's spans: [first_span, last_span).
  std::size_t last_span = 0;

  LayerTotals totals;
  // Per cell label, the cell's simulated MB/s in each trial.
  std::map<std::string, std::vector<double>> cell_mbps;
  // Per tenant, shared/isolated elapsed time for every trial x rep.
  std::vector<std::vector<double>> tenant_slowdowns;

  std::uint64_t attempted = 0;  // Collectives run.
  std::uint64_t failed = 0;     // kFailed outcomes and failed image checks.
  std::vector<std::string> errors;
  // Hash of every simulated statistic the pass produced; equal across
  // passes, processes and trace settings for the same workload and seed.
  std::uint64_t fingerprint = 0;
};

// Runs every trial of `workload` once. `next_trial` numbers trials across the
// whole run (span trial ids).
PassResult RunPass(const Workload& workload, const PassOptions& options, int* next_trial);

}  // namespace perfbench

#endif  // PERFBENCH_PASS_H_
