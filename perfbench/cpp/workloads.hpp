// The three workloads. Each builds its own pool and inputs (set-up, timed
// several times), warms up, measures reps until the time budget is spent,
// verifies every rep, and reports end-to-end metrics (untraced run) or
// per-layer metrics (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

result run_stencil_fine(const options& opt);
result run_fork_join(const options& opt);
result run_service_mmpp(const options& opt);

}  // namespace perfbench
