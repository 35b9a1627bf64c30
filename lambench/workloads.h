// The benchmark's named workloads (see lambench/README.md for why each was
// chosen). Every workload is a Laminar run on the serial engine; the
// benchmark seed sets cfg.seed. Fault schedules (chaos_seed) are fixed per
// workload run, see ChaosServingRun.
#ifndef LAMBENCH_WORKLOADS_H_
#define LAMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/config.h"

namespace lambench {

struct Workload {
  // The simulated runs one rep executes, in order (several when one run
  // cannot cover the workload's paths, e.g. several fault schedules).
  std::vector<laminar::RlSystemConfig> runs;
  // Simulated time of the mid-run LMSNAP1 snapshot; 0 = the workload has no
  // snapshot/restore leg.
  double snapshot_at_seconds = 0.0;
};

const std::vector<std::string>& WorkloadNames();

// Builds workload `name` for `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace lambench

#endif  // LAMBENCH_WORKLOADS_H_
