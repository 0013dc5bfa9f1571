#include "perfbench/workloads.h"

#include "src/disk/disk_registry.h"
#include "src/fs/layout.h"

namespace perfbench {
namespace {

using ddio::core::ExperimentConfig;

// Reference seeds: the first trial seed of every committed bench and of
// `simulate`'s default (ExperimentConfig::base_seed).
constexpr std::uint64_t kReferenceSeed = 1000;

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<std::uint64_t> TrialSeeds(std::uint64_t seed, Scale scale, std::size_t bench_trials,
                                      std::size_t reference_trials) {
  std::vector<std::uint64_t> seeds;
  if (scale == Scale::kReference) {
    for (std::size_t t = 0; t < reference_trials; ++t) {
      seeds.push_back(kReferenceSeed + t);
    }
    return seeds;
  }
  for (std::size_t t = 0; t < bench_trials; ++t) {
    seeds.push_back(SplitMix64(SplitMix64(seed) + t));
  }
  return seeds;
}

Cell MakeCell(const ExperimentConfig& base, const std::string& method,
              const std::string& pattern, const std::string& label) {
  Cell cell{label, base};
  cell.config.method_key = method;
  ddio::core::MethodFromKey(method, &cell.config.method);
  cell.config.pattern = pattern;
  return cell;
}

// fig3's hot cells: the per-record message path at 8-byte records.
bool FineRecords(std::uint64_t seed, Scale scale, Workload* w, std::string*) {
  ExperimentConfig base;  // Table 1 machine: 16 CPs, 16 IOPs, hp97560, 6x6 torus.
  base.record_bytes = 8;
  base.layout = ddio::fs::LayoutKind::kRandomBlocks;
  base.file_bytes = scale == Scale::kReference ? 10 * 1024 * 1024 : 256 * 1024;
  w->cells = {MakeCell(base, "tc", "rc", "tc rc"), MakeCell(base, "ddio", "wc", "ddio wc")};
  w->trial_seeds = TrialSeeds(seed, scale, 4, 1);
  w->tail_percentile = 75;
  return true;
}

// The paper's 8 KB comparison: every method, both directions, both devices.
bool CoarseBlocks(std::uint64_t seed, Scale scale, Workload* w, std::string* error) {
  if (scale == Scale::kReference) {
    *error = "coarse_blocks has no committed reference result";
    return false;
  }
  ExperimentConfig base;
  base.record_bytes = 8192;
  base.layout = ddio::fs::LayoutKind::kRandomBlocks;
  base.file_bytes = 10 * 1024 * 1024;
  for (const char* disk : {"hp97560", "ssd"}) {
    ExperimentConfig cfg = base;
    if (!ddio::disk::DiskSpec::TryParse(disk, &cfg.machine.disk, error)) {
      return false;
    }
    for (const char* method : {"tc", "ddio", "ddio-nosort", "twophase"}) {
      for (const char* pattern : {"rb", "wb"}) {
        w->cells.push_back(MakeCell(cfg, method, pattern,
                                    std::string(method) + " " + pattern + " " + disk));
      }
    }
  }
  w->trial_seeds = TrialSeeds(seed, scale, 4, 0);
  w->tail_percentile = 90;
  return true;
}

// fig_scale's largest cell: 4096 CPs on the contended default torus.
bool ScaleTorus(std::uint64_t seed, Scale scale, Workload* w, std::string*) {
  ExperimentConfig base;
  base.record_bytes = 8192;
  base.layout = ddio::fs::LayoutKind::kContiguous;
  base.machine.num_cps = 4096;
  base.machine.num_iops = 256;
  base.machine.num_disks = 256;
  base.machine.net.model_link_contention = true;
  // fig_scale gives each CP 64 KB; the bench size gives each CP one record.
  base.file_bytes = (scale == Scale::kReference ? 64 * 1024ull : 8 * 1024ull) * 4096;
  w->cells = {MakeCell(base, "tc", "rb", "tc rb"), MakeCell(base, "ddio", "rb", "ddio rb")};
  w->trial_seeds = TrialSeeds(seed, scale, 2, 3);
  w->tail_percentile = 50;
  return true;
}

// validation_multitenant's 8-tenant sched=fair hp97560 cell: tenant 0 is a
// DDIO batch, tenants 1-7 are paced TC readers.
bool SharedTenants(std::uint64_t seed, Scale scale, Workload* w, std::string* error) {
  w->multi_tenant = true;
  ExperimentConfig& base = w->tenant_base;
  base.machine.num_cps = 8;
  base.machine.num_iops = 4;
  base.machine.num_disks = 4;
  base.record_bytes = 8192;
  base.file_bytes = 10 * 1024 * 1024;
  const std::string profiles[] = {"w=1,pat=rb,method=ddio,reps=2",
                                  "w=1,pat=rb,method=tc,reps=2"};
  std::string text = "sched=fair";
  for (int t = 0; t < 8; ++t) {
    text += ";t" + std::to_string(t) + ":" + profiles[t == 0 ? 0 : 1];
    w->isolated_of_tenant.push_back(t == 0 ? 0 : 1);
  }
  if (!ddio::tenant::TenantSpec::TryParse(text, &w->tenant_spec, error) ||
      !w->tenant_spec.Validate(error)) {
    return false;
  }
  for (const std::string& profile : profiles) {
    if (!ddio::tenant::TenantSpec::TryParse("t0:" + profile, &w->isolated_specs.emplace_back(),
                                            error)) {
      return false;
    }
  }
  w->trial_seeds = TrialSeeds(seed, scale, 10, 5);
  w->tail_percentile = 90;
  return true;
}

}  // namespace

bool MakeWorkload(const std::string& name, std::uint64_t seed, Scale scale, Workload* out,
                  std::string* error) {
  *out = Workload();
  if (name == "fine_records") {
    return FineRecords(seed, scale, out, error);
  }
  if (name == "coarse_blocks") {
    return CoarseBlocks(seed, scale, out, error);
  }
  if (name == "scale_torus") {
    return ScaleTorus(seed, scale, out, error);
  }
  if (name == "shared_tenants") {
    return SharedTenants(seed, scale, out, error);
  }
  *error = "unknown workload \"" + name + "\"";
  return false;
}

}  // namespace perfbench
