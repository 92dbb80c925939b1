// Kernel instruction schedules.
//
// A KernelSchedule is an abstract uop stream describing the *instruction
// layout* of a micro-kernel the way its ARMv8 assembly would be written:
// which loads/FMAs appear in what order, with which register dependencies.
// The native micro-kernels (microkernel.cpp) define what a kernel computes;
// the schedule defines how the paper's assembly would behave on the modelled
// pipeline. bench/fig7_schedule_quality prices the literal OpenBLAS 8x4
// edge-kernel layout from the paper's Fig. 7 against a software-pipelined
// layout of the same tile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smm::kern {

/// Micro-operation kinds. Mapped to issue-port classes by the pipeline
/// model: loads/stores -> LS ports, FMA/FMUL/FADD/VZERO -> FP ports,
/// INT/BRANCH -> integer ports.
enum class UopKind : std::uint8_t {
  kLoadVec,     ///< 128-bit vector load (ldr q)
  kLoadPair,    ///< scalar pair load (ldp s/d) — one LS slot, two results
  kLoadScalar,  ///< scalar load (ldr s/d)
  kStoreVec,    ///< 128-bit vector store (str q)
  kFma,         ///< vector fused multiply-add (fmla, incl. by-lane form)
  kFmul,        ///< vector multiply (fmul)
  kFadd,        ///< vector add (fadd)
  kVZero,       ///< register zeroing (movi)
  kDup,         ///< broadcast an element across lanes (dup v, v.s[i])
  kInt,         ///< scalar integer op (address/index arithmetic)
  kBranch       ///< conditional branch (loop back-edge)
};

/// Which GEMM operand a memory uop touches; the plan pricer assigns each
/// stream its own latency from the cache-residency analysis.
enum class Stream : std::uint8_t { kNone, kA, kB, kC };

/// One micro-op. Registers are architectural ids (any small ints; the
/// pipeline model renames, so only read-after-write ordering matters).
/// `src3` carries the accumulator input of an FMA.
struct Uop {
  UopKind kind = UopKind::kInt;
  Stream stream = Stream::kNone;
  std::int16_t dst = -1;
  std::int16_t src1 = -1;
  std::int16_t src2 = -1;
  std::int16_t src3 = -1;
};

/// Complete schedule: prologue (address setup, accumulator zeroing), a
/// steady-state body covering `unroll` k-iterations, and an epilogue
/// (C tile load/update/store, Algorithm 1 lines 11-13).
struct KernelSchedule {
  std::string name;
  int mr = 0;
  int nr = 0;
  int unroll = 1;
  std::vector<Uop> prologue;
  std::vector<Uop> body;
  std::vector<Uop> epilogue;
  /// Useful FMA uops per body (for efficiency accounting).
  int fma_per_body = 0;
};

/// Instruction-layout families observed across the four libraries.
enum class ScheduleStyle : std::uint8_t {
  /// Software-pipelined, interleaved loads/FMAs, double-buffered operand
  /// registers — well-tuned assembly (OpenBLAS main kernel, BLIS, BLASFEO,
  /// and the reference SMM kernels).
  kPipelined,
  /// All loads clustered at the top of each k-iteration, short load-to-use
  /// distance, single-buffered registers — the paper's Fig. 7 layout used
  /// by OpenBLAS edge kernels.
  kClustered,
  /// Compiler-style scalar loop: unroll 1, loads immediately before use,
  /// loop-control overhead every iteration, no pipelining (Eigen).
  kSimple
};

const char* to_string(ScheduleStyle style);

/// How the schedule fetches B elements.
enum class BAccess : std::uint8_t {
  kPackedVec,      ///< contiguous nr values per k: vector loads
  kScalarPairs,    ///< ldp of scalar pairs (OpenBLAS Fig. 7)
  kStridedScalar,  ///< unpacked col-major B: one scalar load per element
};

const char* to_string(BAccess access);

/// Parameters from which build_schedule() synthesizes a KernelSchedule.
struct ScheduleSpec {
  ScheduleStyle style = ScheduleStyle::kPipelined;
  int mr = 8;
  int nr = 4;
  int unroll = 4;
  int lanes = 4;  ///< vector width in elements (4 = f32, 2 = f64)
  BAccess b_access = BAccess::kPackedVec;
  /// false models pre-FMA code generation (separate fmul+fadd).
  bool fuse_mul_add = true;
  /// true models codegen that broadcasts each B element into a full
  /// register (dup) before the FMA instead of using the by-lane fmla form —
  /// extra FP-port pressure (Eigen's generic lane handling).
  bool broadcast_b = false;

  [[nodiscard]] std::string describe() const;
};

/// Synthesize the uop stream for a spec. Register allocation, load
/// placement and FMA ordering follow the style (see ScheduleStyle).
KernelSchedule build_schedule(const ScheduleSpec& spec);

/// The literal OpenBLAS 8x4 single-precision edge micro-kernel body from
/// the paper's Fig. 7 (ldp/ldp/ldr/ldr then eight fmla-by-lane), unroll 2.
/// build_schedule({kClustered, 8, 4, 2, 4, kScalarPairs}) produces the
/// same layout; this function pins the exact figure for tests and benches.
KernelSchedule fig7_openblas_8x4_schedule();

}  // namespace smm::kern
