#ifndef BIONAV_PERFBENCH_MODEL_H_
#define BIONAV_PERFBENCH_MODEL_H_

// The correctness gate: every session the generator ran is replayed, op by
// op, against an in-process NavigationSession built from the benchmark's
// own query artifacts, and each answer the server gave must match it.

#include <cstdint>
#include <string>
#include <vector>

#include "load.h"
#include "medline/eutils.h"

namespace perfbench {

struct ModelCheck {
  int64_t sessions_checked = 0;
  int64_t ops_checked = 0;
  int64_t views_checked = 0;
  int64_t mismatches = 0;
  std::string first_mismatch;
  /// Encoded snapshot size of the model session at every VIEW, when asked
  /// for (the size a spill of that session writes).
  std::vector<double> snapshot_bytes;
};

/// Replays `sessions` (drawn from `variants`) against the model and adds
/// the outcome to `check`. A session the server shed is replayed up to the
/// shed request only.
void ReplayAgainstModel(const bionav::ConceptHierarchy& hierarchy,
                        const bionav::EUtilsClient& eutils,
                        const std::vector<Variant>& variants,
                        const std::vector<SessionLog>& sessions,
                        bool measure_snapshots, ModelCheck* check);

}  // namespace perfbench

#endif  // BIONAV_PERFBENCH_MODEL_H_
