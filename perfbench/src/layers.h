// The traced run (--trace 1): the workload once untraced and once with a
// span per call or request, then calls into each layer's public
// functions timed from here, on the workload's own shapes. Layers are
// named after smmkit's modules: core (incl. core.plan_cache), plan,
// kernels, pack, threading, tune, batched, service, shard, failover.
// A layer the workload does not exercise reads 0 and is listed in a note.
#pragma once

#include "common.h"

namespace perfbench {

void run_traced(const RunConfig& cfg, Report& report);

}  // namespace perfbench
