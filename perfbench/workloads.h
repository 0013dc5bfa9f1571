// The benchmark's four workloads, generated from a seed.
//
// A workload is a list of cells run once per trial seed. A cell is one
// single-collective WorkloadSession on a fresh machine, except in the
// multi-tenant workload, where a trial is one shared TenantScheduler run plus
// the isolated runs its slowdown divides by. A trial is everything one trial
// seed runs, so trial times stay unimodal even when cells differ in cost.
//
// Two sizes exist. kBench is what the timed and traced passes run; it is
// sized so a run of a few tens of seconds holds enough trials for a median
// and a tail. kReference is the size of the committed results the
// benchmark cross-checks against (fig3's 10 MB cells, BENCH_scale.json's
// 64 KB per CP, BENCH_multitenant.json's cell), with their seeds.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/tenant/tenant_spec.h"

namespace perfbench {

enum class Scale { kBench, kReference };

struct Cell {
  std::string label;  // e.g. "tc rc" or "ddio-nosort wb ssd".
  ddio::core::ExperimentConfig config;
};

struct Workload {
  std::vector<Cell> cells;  // Session cells; empty for the multi-tenant workload.

  bool multi_tenant = false;
  ddio::core::ExperimentConfig tenant_base;
  ddio::tenant::TenantSpec tenant_spec;
  // The distinct one-tenant specs of the isolated (slowdown baseline) runs,
  // and per tenant the index of the one it divides by.
  std::vector<ddio::tenant::TenantSpec> isolated_specs;
  std::vector<std::size_t> isolated_of_tenant;

  std::vector<std::uint64_t> trial_seeds;  // One trial per seed, in order.
  // trial_ms.tail reports this percentile: the highest percentile that keeps
  // at least ten trials beyond it in a run of the benchmark's length.
  double tail_percentile = 50;
};

// Builds workload `name` whose trial seeds derive from `seed` (kBench) or
// are the committed results' seeds (kReference). Returns false and sets
// *error on an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Scale scale, Workload* out,
                  std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
