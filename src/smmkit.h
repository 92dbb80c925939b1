// Umbrella header: the whole public surface of smmkit.
//
//   #include "src/smmkit.h"
//
// pulls in the reference SMM (smm::core), the four library strategy
// models (smm::libs), the plan machinery (smm::plan), the analytical
// models (smm::model), the Phytium 2000+ machine model (smm::sim), the
// robustness layer (smm::robust) and the serving front-end
// (smm::service). Fine-grained headers remain available for faster
// builds.
#pragma once

#include "src/core/batched.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/libs/blasfeo_like/gemm_blasfeo_like.h"
#include "src/libs/blis_like/gemm_blis_like.h"
#include "src/libs/eigen_like/gemm_eigen_like.h"
#include "src/libs/gemm_interface.h"
#include "src/libs/naive.h"
#include "src/libs/openblas_like/gemm_openblas_like.h"
#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"
#include "src/model/equations.h"
#include "src/model/kernel_space.h"
#include "src/model/peak.h"
#include "src/model/prediction.h"
#include "src/plan/exec_scratch.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan_stats.h"
#include "src/robust/abft.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "src/service/smm_service.h"
#include "src/sim/exec/pricer.h"
#include "src/sim/exec/trace_export.h"
#include "src/sim/machine.h"
