// Kernel registry: every micro-kernel any strategy may invoke, with its
// native implementation (for plan execution) and its schedule spec (for
// pipeline-model pricing). Kernels are grouped into families matching the
// paper's libraries ("openblas", "blis", "blasfeo", "eigen") plus "smm"
// (the Section-IV reference implementation's kernel set).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/schedule.h"

namespace smm::kern {

/// Opaque kernel handle; stable for the process lifetime.
using KernelId = int;

struct KernelInfo {
  KernelId id = -1;
  std::string name;        ///< e.g. "openblas/16x4"
  std::string family;      ///< "openblas", "blis", "blasfeo", "eigen", "smm"
  int mr = 0;
  int nr = 0;
  bool edge = false;       ///< true for dedicated edge-case kernels
  /// Schedule parameters with lanes for f32; kernel_spec<T>() rescales.
  ScheduleSpec sched;
  MicroKernelFn<float> f32 = nullptr;
  MicroKernelFn<double> f64 = nullptr;
};

class KernelRegistry {
 public:
  /// The process-wide registry (built on first use; immutable after).
  static const KernelRegistry& instance();

  [[nodiscard]] const KernelInfo& info(KernelId id) const;
  /// Throws smm::Error if the name is unknown.
  [[nodiscard]] KernelId find(std::string_view name) const;
  /// Kernel of the family with exactly this tile; throws if absent.
  [[nodiscard]] KernelId find_tile(std::string_view family, int mr,
                                   int nr) const;
  [[nodiscard]] bool has_tile(std::string_view family, int mr, int nr) const;
  /// All kernels of a family, main kernels first.
  [[nodiscard]] std::vector<KernelId> family(std::string_view family) const;
  [[nodiscard]] index_t size() const {
    return static_cast<index_t>(kernels_.size());
  }

 private:
  KernelRegistry();
  KernelId add(KernelInfo info);

  std::vector<KernelInfo> kernels_;
};

/// Native function for a kernel, selected by scalar type.
template <typename T>
MicroKernelFn<T> kernel_fn(KernelId id);

/// Schedule spec with the lane count adjusted for T (4 for f32, 2 for f64).
template <typename T>
ScheduleSpec kernel_spec(KernelId id);

/// Decompose an edge extent into chunks available in `family` for the given
/// dimension. E.g. OpenBLAS computes an 11-row M edge as 8 + 2 + 1
/// (Section III-B). `sizes` must be the family's available chunk sizes in
/// decreasing order; greedy decomposition matches how the libraries chain
/// their edge kernels.
std::vector<index_t> decompose_edge(index_t extent,
                                    const std::vector<index_t>& sizes);

/// Widest vector, in bits, the CPU and OS support for the kernel clones:
/// 512 with AVX2 + AVX-512F/VL, 256 with AVX2, else 128 (always on
/// AArch64). Read from cpuid once per process; there is no override.
int host_vector_bits();

/// Pick the native micro-kernel function for a tile: the register-blocked
/// clone tile_clone_fn<T>(mr, nr, host_vector_bits()) names when one
/// exists, else the generic kernel.
template <typename T>
MicroKernelFn<T> native_tile_fn(int mr, int nr);

}  // namespace smm::kern
