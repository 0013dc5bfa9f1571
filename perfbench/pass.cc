#include "perfbench/pass.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/core/validation.h"
#include "src/core/workload.h"
#include "src/disk/disk_model.h"
#include "src/fs/striped_file.h"
#include "src/net/topology.h"
#include "src/pattern/pattern.h"
#include "src/sim/frame_pool.h"
#include "src/sim/rng.h"
#include "src/tenant/tenant_scheduler.h"

namespace perfbench {
namespace {

using ddio::core::ExperimentConfig;
using ddio::core::Machine;
using ddio::core::OpStats;
using ddio::sim::internal::FramePool;

// Enough calls that a probe's total is well above clock resolution.
constexpr std::uint64_t kRouteCalls = 200'000;
constexpr std::uint64_t kDiskCalls = 50'000;

// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct TrialContext {
  const PassOptions& options;
  int trial = 0;
  PassResult* result;
  Fingerprint* fp;
};

// Counts one collective's statistics into the pass. `counts_toward_mbps`
// selects the collectives that define sim_mbps (every collective except a
// multi-tenant trial's isolated baselines).
void AddCollective(const std::string& method, const OpStats& stats, bool counts_toward_mbps,
                   TrialContext& ctx) {
  PassResult& r = *ctx.result;
  LayerTotals& t = r.totals;
  ++r.attempted;
  if (!stats.status.ok()) {
    ++r.failed;
    r.errors.push_back(method + " collective failed: " + stats.status.detail);
  }
  if (counts_toward_mbps) {
    t.file_bytes += stats.file_bytes;
    t.elapsed_ns += stats.elapsed_ns();
  }
  t.disk_util_sum += stats.avg_disk_util;
  t.cp_util_max = std::max(t.cp_util_max, stats.max_cp_cpu_util);
  t.iop_util_max = std::max(t.iop_util_max, stats.max_iop_cpu_util);
  t.bus_util_max = std::max(t.bus_util_max, stats.max_bus_util);
  t.position_ns += stats.attrib.disk_position_ns;
  t.transfer_ns += stats.attrib.disk_transfer_ns;
  t.nic_ns += stats.attrib.nic_ns;
  t.network_ns += stats.attrib.network_ns;
  t.compute_ns += stats.attrib.compute_ns;
  if (method == "tc") {
    t.tc_requests += stats.requests;
    t.tc_hits += stats.cache_hits;
    t.tc_misses += stats.cache_misses;
    t.tc_prefetches += stats.prefetches;
    t.tc_flushes += stats.flushes;
    t.tc_rmw_flushes += stats.rmw_flushes;
    t.tc_stall_ns += stats.attrib.cache_stall_ns;
  } else if (method == "ddio" || method == "ddio-nosort") {
    t.ddio_pieces += stats.pieces;
    t.ddio_bytes += stats.bytes_delivered;
  } else if (method == "twophase") {
    t.twophase_requests += stats.requests;
  }

  Fingerprint& fp = *ctx.fp;
  for (std::uint64_t v :
       {stats.start_ns, stats.end_ns, stats.file_bytes, stats.requests, stats.cache_hits,
        stats.cache_misses, stats.prefetches, stats.flushes, stats.rmw_flushes, stats.pieces,
        stats.bytes_delivered, static_cast<std::uint64_t>(stats.status.outcome)}) {
    fp.Add(v);
  }
  for (double v : {stats.max_cp_cpu_util, stats.max_iop_cpu_util, stats.max_bus_util,
                   stats.avg_disk_util}) {
    fp.Add(v);
  }
}

// Engine, frame-pool, network and disk counters of one finished simulation.
// The frame count stays out of the fingerprint: with trace=attrib on a
// contended network every link use runs in one more coroutine
// (Network::TracedLinkUse), so traced passes allocate more frames for the
// same events.
void AddMachine(ddio::sim::Engine& engine, Machine& machine, std::uint64_t frame_allocs,
                TrialContext& ctx) {
  LayerTotals& t = ctx.result->totals;
  const ddio::sim::EngineStats es = engine.stats();
  const ddio::net::NetworkStats& ns = machine.network().stats();
  const ddio::disk::DiskMechanismStats ds = machine.AggregateDiskStats();
  t.events += engine.events_processed();
  t.fifo_events += es.fifo_events;
  t.timed_events += es.timed_events;
  t.max_queue_depth = std::max(t.max_queue_depth, es.max_queue_depth);
  t.calendar_resizes += es.calendar_resizes;
  t.frame_allocs += frame_allocs;
  t.messages += ns.messages;
  t.data_bytes += ns.data_bytes;
  t.wire_bytes += ns.wire_bytes;
  t.disk_requests += ds.requests;
  t.seeks += ds.seeks;
  t.seek_cylinders += ds.seek_cylinders;
  t.stream_hits += ds.stream_hits;
  for (std::uint64_t v :
       {engine.events_processed(), es.fifo_events, es.timed_events, es.max_queue_depth,
        es.calendar_resizes, ns.messages, ns.data_bytes, ns.wire_bytes,
        ds.requests, ds.seeks, ds.seek_cylinders, ds.stream_hits, ds.seek_ns, ds.rotation_ns,
        ds.media_ns, ds.overhead_ns}) {
    ctx.fp->Add(v);
  }
}

// Times the public layer APIs on this collective's inputs: the pattern walk
// both views take, AppendRoute over the CP<->IOP pairs that exchange data,
// and DiskModel::Access replayed over each disk's LBN sequence. Probe results
// go into probe_checksum, never the fingerprint: untraced passes skip them.
void RunProbes(const ddio::pattern::AccessPattern& pattern, const ddio::fs::StripedFile& file,
               Machine& machine, TrialContext& ctx) {
  PassResult& r = *ctx.result;
  SpanRecorder* spans = ctx.options.spans;
  const std::int64_t probe_start = HostNowNs();
  const std::uint32_t cps = pattern.num_cps();
  const std::uint64_t block = file.block_bytes();
  {
    Scope walk(spans, "pattern.walk", ctx.trial);
    std::uint64_t chunks = 0;
    std::uint64_t pieces = 0;
    for (std::uint32_t cp = 0; cp < cps; ++cp) {
      pattern.ForEachChunk(cp, [&](const ddio::pattern::AccessPattern::Chunk&) { ++chunks; });
    }
    for (std::uint64_t b = 0; b < file.num_blocks(); ++b) {
      pattern.ForEachPieceInRange(b * block, file.BlockLength(b),
                                  [&](const ddio::pattern::AccessPattern::Piece&) { ++pieces; });
    }
    r.totals.chunks += chunks;
    r.totals.pieces += pieces;
  }

  // CP<->IOP pairs that exchange data: a CP talks to the IOP of every block
  // its chunks touch.
  const std::uint32_t iops = machine.num_iops();
  std::vector<char> talks(static_cast<std::size_t>(cps) * iops, 0);
  for (std::uint32_t cp = 0; cp < cps; ++cp) {
    pattern.ForEachChunk(cp, [&](const ddio::pattern::AccessPattern::Chunk& c) {
      for (std::uint64_t b = c.file_offset / block; b * block < c.file_offset + c.length; ++b) {
        talks[static_cast<std::size_t>(cp) * iops + machine.IopOfDisk(file.DiskOfBlock(b))] = 1;
      }
    });
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t cp = 0; cp < cps; ++cp) {
    for (std::uint32_t iop = 0; iop < iops; ++iop) {
      if (talks[static_cast<std::size_t>(cp) * iops + iop] != 0) {
        pairs.emplace_back(machine.NodeOfCp(cp), machine.NodeOfIop(iop));
      }
    }
  }
  if (!pairs.empty()) {
    const ddio::net::Topology& topology = machine.network().topology();
    const std::uint64_t reps = (kRouteCalls + 2 * pairs.size() - 1) / (2 * pairs.size());
    std::vector<ddio::net::LinkId> route;
    std::uint64_t links = 0;
    Scope timed(spans, "net.route", ctx.trial);
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      for (const auto& [cp_node, iop_node] : pairs) {
        topology.AppendRoute(cp_node, iop_node, &route);
        topology.AppendRoute(iop_node, cp_node, &route);
        links += route.size();
        route.clear();
      }
    }
    timed.Stop();
    r.routes += reps * 2 * pairs.size();
    r.probe_checksum += links;
  }

  // One fresh device model per disk, fed that disk's blocks in file order,
  // repeatedly; the device keeps its state across repetitions as it would
  // across collectives.
  const bool is_write = pattern.spec().is_write;
  std::vector<std::unique_ptr<ddio::disk::DiskModel>> models;
  std::vector<std::vector<std::uint64_t>> lbns;
  std::uint64_t per_rep = 0;
  for (std::uint32_t d = 0; d < file.num_disks(); ++d) {
    models.push_back(machine.config().DiskSpecFor(d).Build());
    lbns.emplace_back();
    for (std::uint64_t b : file.FileBlocksOnDisk(d)) {
      lbns.back().push_back(file.LbnOfBlock(b));
    }
    per_rep += lbns.back().size();
  }
  if (per_rep > 0) {
    const std::uint64_t reps = (kDiskCalls + per_rep - 1) / per_rep;
    std::vector<ddio::sim::SimTime> now(models.size(), 0);
    Scope timed(spans, "disk.access", ctx.trial);
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      for (std::size_t d = 0; d < models.size(); ++d) {
        const std::uint32_t sectors =
            static_cast<std::uint32_t>(block / models[d]->bytes_per_sector());
        for (std::uint64_t lbn : lbns[d]) {
          now[d] = models[d]->Access(now[d], lbn, sectors, is_write).completion;
        }
      }
    }
    timed.Stop();
    r.disk_accesses += reps * per_rep;
    for (ddio::sim::SimTime t : now) {
      r.probe_checksum += t;
    }
  }
  r.probe_ns += HostNowNs() - probe_start;
}

// Destroys a finished simulation (engine, machine, frames) inside a span.
template <typename T>
void Teardown(std::unique_ptr<T>& simulation, TrialContext& ctx) {
  Scope s(ctx.options.spans, "core.teardown", ctx.trial);
  simulation.reset();
}

ddio::pattern::AccessPattern PatternOf(const std::string& name, std::uint64_t file_bytes,
                                       std::uint32_t record_bytes, std::uint32_t cps) {
  return ddio::pattern::AccessPattern(ddio::pattern::PatternSpec::Parse(name), file_bytes,
                                      record_bytes, cps);
}

// One single-collective session on a fresh machine.
void RunSessionCell(const Cell& cell, std::uint64_t seed, TrialContext& ctx) {
  PassResult& r = *ctx.result;
  SpanRecorder* spans = ctx.options.spans;
  ExperimentConfig config = cell.config;
  config.trace.attrib = ctx.options.traced;
  const ddio::core::WorkloadPhase phase = ddio::core::Workload::SinglePhase(config).phases[0];
  const std::uint64_t frames_before = FramePool::stats().allocations;

  std::unique_ptr<ddio::core::WorkloadSession> session;
  {
    Scope s(spans, "core.machine_build", ctx.trial);
    session = std::make_unique<ddio::core::WorkloadSession>(config, seed);
    r.setup_ns += s.Stop();
  }
  const ddio::fs::StripedFile* file = nullptr;
  {
    Scope s(spans, "fs.layout", ctx.trial);
    file = &session->FileFor(phase);
    r.setup_ns += s.Stop();
  }
  {
    Scope s(spans, "core.fs_start", ctx.trial);
    session->ActivateFileSystem(phase.method);
    r.setup_ns += s.Stop();
  }
  ddio::core::ValidationSink sink;
  if (ctx.options.verify) {
    session->machine().set_validation(&sink);
  }
  OpStats stats;
  {
    Scope s(spans, "core.run_phase", ctx.trial);
    stats = session->RunPhase(phase);
  }
  const std::uint64_t frame_allocs = FramePool::stats().allocations - frames_before;
  AddCollective(config.method_key, stats, /*counts_toward_mbps=*/true, ctx);
  AddMachine(session->engine(), session->machine(), frame_allocs, ctx);
  r.cell_mbps[cell.label].push_back(stats.ThroughputMBps());

  if (ctx.options.verify || ctx.options.traced) {
    const ddio::pattern::AccessPattern pattern =
        PatternOf(config.pattern, file->file_bytes(), config.record_bytes, config.machine.num_cps);
    if (ctx.options.verify) {
      session->machine().set_validation(nullptr);
      std::vector<std::string> errors;
      Scope s(spans, "core.verify", ctx.trial);
      if (!sink.Verify(pattern, &errors)) {
        ++r.failed;
        r.errors.push_back(cell.label + ": data image failed verification: " +
                           (errors.empty() ? std::string("(no diagnostics)") : errors[0]));
      }
    }
    if (ctx.options.traced) {
      RunProbes(pattern, *file, session->machine(), ctx);
    }
  }
  Teardown(session, ctx);
}

// Builds and runs one TenantScheduler, timing its set-up apart from Run, and
// returns it alive so the caller can still read its machine.
std::unique_ptr<ddio::tenant::TenantScheduler> RunScheduler(
    const ExperimentConfig& config, const ddio::tenant::TenantSpec& spec, std::uint64_t seed,
    TrialContext& ctx, ddio::tenant::MultiTenantTrialResult* result) {
  const std::uint64_t frames_before = FramePool::stats().allocations;
  std::unique_ptr<ddio::tenant::TenantScheduler> scheduler;
  {
    Scope s(ctx.options.spans, "core.machine_build", ctx.trial);
    scheduler = std::make_unique<ddio::tenant::TenantScheduler>(config, spec, seed);
    ctx.result->setup_ns += s.Stop();
  }
  {
    Scope s(ctx.options.spans, "core.run_phase", ctx.trial);
    *result = scheduler->Run();
  }
  AddMachine(scheduler->engine(), scheduler->machine(),
             FramePool::stats().allocations - frames_before, ctx);
  return scheduler;
}

// One shared multi-tenant run plus the isolated runs its slowdowns divide by.
void RunTenantTrial(const Workload& w, std::uint64_t seed, TrialContext& ctx) {
  ExperimentConfig config = w.tenant_base;
  config.trace.attrib = ctx.options.traced;
  const std::size_t tenants = w.tenant_spec.tenants.size();

  ddio::tenant::MultiTenantTrialResult result;
  std::unique_ptr<ddio::tenant::TenantScheduler> shared =
      RunScheduler(config, w.tenant_spec, seed, ctx, &result);
  LayerTotals& t = ctx.result->totals;
  t.weighted_disk_busy_ns.resize(tenants, 0.0);
  ++t.tenant_trials;
  ddio::sim::SimTime first_finish = ~ddio::sim::SimTime{0};
  ddio::sim::SimTime last_finish = 0;
  for (std::size_t i = 0; i < tenants; ++i) {
    const ddio::tenant::TenantResult& tr = result.tenants[i];
    const ddio::tenant::TenantEntry& entry = w.tenant_spec.tenants[i];
    for (const OpStats& stats : tr.phases) {
      AddCollective(entry.method, stats, /*counts_toward_mbps=*/true, ctx);
    }
    t.admit_wait_ns += tr.admitted_ns;
    first_finish = std::min(first_finish, tr.finished_ns);
    last_finish = std::max(last_finish, tr.finished_ns);
    t.weighted_disk_busy_ns[i] +=
        static_cast<double>(tr.disk_busy_ns) / static_cast<double>(entry.weight);
    for (ddio::sim::SimTime v : {tr.admitted_ns, tr.finished_ns, tr.disk_busy_ns}) {
      ctx.fp->Add(static_cast<std::uint64_t>(v));
    }
  }
  t.finish_spread_ns += last_finish - first_finish;

  if (ctx.options.traced) {
    // Tenant files are laid out inside the scheduler; the probes lay out an
    // equivalent file of tenant 0's geometry.
    ddio::fs::StripedFile::Params params;
    params.file_bytes = config.file_bytes;
    params.block_bytes = config.machine.block_bytes;
    params.num_disks = config.machine.num_disks;
    params.layout = config.layout;
    params.disk_capacity_bytes = config.machine.MinDiskCapacityBytes() /
                                 config.machine.block_bytes * config.machine.block_bytes;
    ddio::sim::Rng rng(seed);
    const ddio::fs::StripedFile file(params, rng);
    RunProbes(PatternOf(w.tenant_spec.tenants[0].pattern, config.file_bytes,
                        config.record_bytes, config.machine.num_cps),
              file, shared->machine(), ctx);
  }
  Teardown(shared, ctx);

  // Isolated baselines: each distinct tenant profile alone on the machine,
  // same seed (validation_multitenant's definition).
  std::vector<std::vector<double>> isolated;
  for (const ddio::tenant::TenantSpec& solo : w.isolated_specs) {
    ddio::tenant::MultiTenantTrialResult solo_result;
    std::unique_ptr<ddio::tenant::TenantScheduler> alone =
        RunScheduler(config, solo, seed, ctx, &solo_result);
    Teardown(alone, ctx);
    std::vector<double>& elapsed = isolated.emplace_back();
    for (const OpStats& stats : solo_result.tenants[0].phases) {
      AddCollective(solo.tenants[0].method, stats, /*counts_toward_mbps=*/false, ctx);
      elapsed.push_back(static_cast<double>(stats.elapsed_ns()));
    }
  }

  std::vector<std::vector<double>>& slowdowns = ctx.result->tenant_slowdowns;
  slowdowns.resize(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    const std::vector<double>& baseline = isolated[w.isolated_of_tenant[i]];
    const std::vector<OpStats>& phases = result.tenants[i].phases;
    for (std::size_t p = 0; p < phases.size() && p < baseline.size(); ++p) {
      if (baseline[p] > 0) {
        slowdowns[i].push_back(static_cast<double>(phases[p].elapsed_ns()) / baseline[p]);
      }
    }
  }
}

}  // namespace

PassResult RunPass(const Workload& workload, const PassOptions& options, int* next_trial) {
  PassResult result;
  Fingerprint fp;
  SpanRecorder* spans = options.spans;
  result.first_span = spans != nullptr ? spans->spans().size() : 0;
  const FramePool::Stats frames_before = FramePool::stats();
  Scope pass(spans, "pass", -1);
  for (std::uint64_t seed : workload.trial_seeds) {
    TrialContext ctx{options, (*next_trial)++, &result, &fp};
    Scope trial(spans, "trial", ctx.trial);
    if (workload.multi_tenant) {
      RunTenantTrial(workload, seed, ctx);
    } else {
      for (const Cell& cell : workload.cells) {
        RunSessionCell(cell, seed, ctx);
      }
    }
    result.trial_ns.push_back(trial.Stop());
  }
  result.wall_ns = pass.Stop();
  const FramePool::Stats frames_after = FramePool::stats();
  const std::uint64_t allocations = frames_after.allocations - frames_before.allocations;
  result.frame_pool_hit_ratio =
      allocations > 0 ? static_cast<double>(frames_after.pool_hits - frames_before.pool_hits) /
                            static_cast<double>(allocations)
                      : 0.0;
  result.last_span = spans != nullptr ? spans->spans().size() : 0;
  result.fingerprint = fp.value();
  return result;
}

}  // namespace perfbench
