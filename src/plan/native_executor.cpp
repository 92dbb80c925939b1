#include "src/plan/native_executor.h"

#include <chrono>
#include <cstddef>
#include <memory>
#include <utility>

#include "src/common/error.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/registry.h"
#include "src/pack/pack.h"
#include "src/plan/exec_scratch.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "src/threading/barrier.h"
#include "src/threading/thread_pool.h"

namespace smm::plan {

namespace {

/// Run one PackBOp against `b`, writing at `base` (the op's buffer).
template <typename T>
void run_pack_b_op(const PackBOp& op, ConstMatrixView<T> b, T* base) {
  T* dst = base + op.dst_offset;
  const auto block = b.block(op.k0, op.j0, op.kc, op.nc);
  if (op.chunks.empty()) {
    pack::pack_b(block, op.nr, op.pad, dst);
  } else {
    pack::pack_b_chunked(block, op.chunks, dst);
  }
}

/// Run one ConvertOp against its source matrix, writing at `dst`.
template <typename T>
void run_convert_op(const ConvertOp& op, ConstMatrixView<T> src, T* dst) {
  const index_t rows = op.transpose ? src.cols() : src.rows();
  const index_t cols = op.transpose ? src.rows() : src.cols();
  // Panel-major layout: (i, j) -> (i/ps)*ps*cols + j*ps + i%ps, rows
  // zero-padded to a panel multiple (padding was zeroed at allocation).
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      const T v = op.transpose ? src(j, i) : src(i, j);
      dst[(i / op.ps) * op.ps * cols + j * op.ps + (i % op.ps)] = v;
    }
  }
}

/// Elements a PackBOp writes past its dst_offset (panel-padded width
/// times depth; an upper bound is fine — it is only used to prove two
/// writes disjoint).
index_t pack_b_written_elems(const PackBOp& op) {
  index_t width = op.nc;
  if (op.pad && op.nr > 0) width = (op.nc + op.nr - 1) / op.nr * op.nr;
  return width * op.kc;
}

template <typename T>
struct ExecContext {
  const GemmPlan& plan;
  T alpha;
  ConstMatrixView<T> a;
  ConstMatrixView<T> b;
  T beta;
  MatrixView<T> c;
  const PrepackedB<T>* prepacked;  // may be null
  ExecScratch::Lease<T> scratch;
  std::vector<T*> buffers;  // base pointer per plan buffer
  std::vector<std::unique_ptr<par::Barrier>> barriers;

  ExecContext(const GemmPlan& p, T al, ConstMatrixView<T> av,
              ConstMatrixView<T> bv, T be, MatrixView<T> cv,
              const PrepackedB<T>* pre)
      : plan(p),
        alpha(al),
        a(av),
        b(bv),
        beta(be),
        c(cv),
        prepacked(pre),
        scratch(ExecScratch::local(), scratch_sizes(p, pre)) {
    buffers.resize(plan.buffers.size(), nullptr);
    for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
      buffers[i] = serves_buffer(i)
                       ? const_cast<T*>(prepacked->prepacked_data(i))
                       : scratch.ptr(i);
    }
    barriers.reserve(plan.barriers.size());
    for (const auto& decl : plan.barriers)
      barriers.push_back(std::make_unique<par::Barrier>(decl.participants));
  }

  [[nodiscard]] bool serves_buffer(std::size_t i) const {
    return prepacked != nullptr && prepacked->serves_buffer(i);
  }

 private:
  /// Per-buffer element counts the arena must carve; prepacked buffers
  /// need no scratch at all.
  static std::vector<index_t> scratch_sizes(const GemmPlan& p,
                                            const PrepackedB<T>* pre) {
    std::vector<index_t> sizes(p.buffers.size(), 0);
    for (std::size_t i = 0; i < p.buffers.size(); ++i)
      sizes[i] =
          (pre != nullptr && pre->serves_buffer(i)) ? 0 : p.buffers[i].elems;
    return sizes;
  }
};

template <typename T>
struct OpRunner {
  ExecContext<T>& ctx;

  void operator()(const PackAOp& op) const {
    T* dst = ctx.buffers[static_cast<std::size_t>(op.buffer)] +
             op.dst_offset;
    const auto block = ctx.a.block(op.i0, op.k0, op.mc, op.kc);
    if (op.chunks.empty()) {
      pack::pack_a(block, op.mr, op.pad, dst);
    } else {
      pack::pack_a_chunked(block, op.chunks, dst);
    }
    // A bit flip in the scratch slab between pack and kernel: the packed
    // block is about to be trusted by every kernel that reads it.
    robust::maybe_corrupt(robust::FaultSite::kScratchSlabFlip, dst,
                          op.mc * op.kc);
  }

  void operator()(const PackBOp& op) const {
    const auto buf = static_cast<std::size_t>(op.buffer);
    if (ctx.serves_buffer(buf)) return;  // packed once, up front
    run_pack_b_op(op, ctx.b, ctx.buffers[buf]);
  }

  void operator()(const ConvertOp& op) const {
    const auto buf = static_cast<std::size_t>(op.buffer);
    const bool is_a = op.which == ConvertOp::Which::kA;
    if (!is_a && ctx.serves_buffer(buf)) return;  // converted up front
    run_convert_op(op, is_a ? ctx.a : ctx.b, ctx.buffers[buf]);
  }

  void bind_operand(const OperandRef& ref, bool is_a, index_t tile_extent,
                    kern::KernelOperands<T>& ops, index_t anchor_row,
                    index_t anchor_col) const {
    switch (ref.kind) {
      case OperandRef::Kind::kBuffer: {
        const T* base =
            ctx.buffers[static_cast<std::size_t>(ref.buffer)] + ref.offset;
        if (is_a) {
          ops.a = base;
          ops.a_ps = ref.ps;
          ops.a_pstride = ref.pstride;
          ops.a_kstride = ref.kstride;
        } else {
          ops.b = base;
          ops.b_ps = ref.ps;
          ops.b_pstride = ref.pstride;
          ops.b_kstride = ref.kstride;
        }
        break;
      }
      case OperandRef::Kind::kDirectA: {
        SMM_EXPECT(is_a, "kDirectA bound to the B slot");
        if (ctx.a.row_stride() == 1) {
          kern::set_direct_a_colmajor(ops, &ctx.a(ref.row0, ref.col0),
                                      ctx.a.col_stride(), tile_extent);
        } else {
          // op(A) of a transposed input: rows strided, generic kernel
          // territory (run() falls through to it below).
          kern::set_direct_a_rowmajor(ops, &ctx.a(ref.row0, ref.col0),
                                      ctx.a.row_stride(), tile_extent);
        }
        (void)anchor_row;
        (void)anchor_col;
        break;
      }
      case OperandRef::Kind::kDirectB: {
        SMM_EXPECT(!is_a, "kDirectB bound to the A slot");
        if (ctx.b.layout() == Layout::kColMajor) {
          kern::set_direct_b_colmajor(ops, &ctx.b(ref.row0, ref.col0),
                                      ctx.b.ld());
        } else {
          kern::set_direct_b_rowmajor(ops, &ctx.b(ref.row0, ref.col0),
                                      ctx.b.ld(), tile_extent);
        }
        break;
      }
    }
  }

  void operator()(const KernelOp& op) const {
    const auto& info = kern::KernelRegistry::instance().info(op.kernel);
    kern::KernelOperands<T> ops;
    bind_operand(op.a, /*is_a=*/true, info.mr, ops, op.i0, 0);
    bind_operand(op.b, /*is_a=*/false, info.nr, ops, 0, op.j0);
    T beta_call = op.first_k_block ? ctx.beta : T(1);
    if (op.c_buffer >= 0) {
      // K-split: accumulate into the private slab; the caller's beta is
      // applied by the reduction, so a fresh tile starts from zero.
      ops.c = ctx.buffers[static_cast<std::size_t>(op.c_buffer)] +
              op.c_offset;
      ops.c_rs = 1;
      ops.c_cs = op.c_ld;
      beta_call = op.first_k_block ? T(0) : T(1);
    } else {
      ops.c = &ctx.c(op.i0, op.j0);
      ops.c_rs = ctx.c.row_stride();
      ops.c_cs = ctx.c.col_stride();
    }
    // Full tiles with contiguous A run the kernel's specialized
    // implementation; masked (edge) updates and strided-row A (transposed
    // direct input) fall back to the generic kernel, which honours any
    // addressing. Numerically both compute the same values.
    const bool tile_ok = op.useful_m == info.mr && op.useful_n == info.nr &&
                         ops.a_istride == 1;
    if (tile_ok) {
      kern::kernel_fn<T>(op.kernel)(op.kc, ctx.alpha, beta_call, ops,
                                    op.useful_m, op.useful_n);
    } else {
      kern::generic_microkernel<T>(op.kc, ctx.alpha, beta_call, ops,
                                   op.useful_m, op.useful_n);
    }
    // Fault-injection point: a miscomputing kernel corrupts its own C
    // update (the tile anchor — the slab anchor for K-split tiles).
    robust::maybe_corrupt(robust::FaultSite::kKernelMiscompute, ops.c,
                          index_t{1});
  }

  void operator()(const BarrierOp& op) const {
    ctx.barriers[static_cast<std::size_t>(op.barrier)]->arrive_and_wait();
  }

  void operator()(const ScaleCOp& op) const {
    for (index_t j = 0; j < op.cols; ++j) {
      for (index_t i = 0; i < op.rows; ++i) {
        T& v = ctx.c(op.i0 + i, op.j0 + j);
        v = (ctx.beta == T(0)) ? T(0) : v * ctx.beta;
      }
    }
  }

  void operator()(const ReduceCOp& op) const {
    const T* slabs =
        ctx.buffers[static_cast<std::size_t>(op.buffer)] + op.offset;
    for (index_t j = 0; j < op.cols; ++j) {
      for (index_t i = 0; i < op.rows; ++i) {
        double acc = 0;
        for (int p = 0; p < op.parts; ++p)
          acc += static_cast<double>(
              slabs[p * op.part_stride + j * op.ld + i]);
        T& c = ctx.c(op.i0 + i, op.j0 + j);
        const double base = ctx.beta == T(0)
                                ? 0.0
                                : static_cast<double>(ctx.beta) *
                                      static_cast<double>(c);
        c = static_cast<T>(acc + base);
      }
    }
  }
};

double steady_now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// OpRunner wrapped with per-category wall-clock accounting — the native
/// counterpart of the simulator's Table II breakdown. Kept separate from
/// OpRunner so the untimed hot path pays zero clock reads.
template <typename T>
struct TimedOpRunner {
  OpRunner<T> inner;
  ThreadTiming& t;

  template <typename Op>
  void charge(double ThreadTiming::* slot, const Op& op) {
    const double t0 = steady_now_ns();
    inner(op);
    t.*slot += steady_now_ns() - t0;
  }

  void operator()(const PackAOp& op) { charge(&ThreadTiming::pack_ns, op); }
  void operator()(const PackBOp& op) { charge(&ThreadTiming::pack_ns, op); }
  void operator()(const ConvertOp& op) { charge(&ThreadTiming::pack_ns, op); }
  void operator()(const KernelOp& op) {
    charge(&ThreadTiming::kernel_ns, op);
  }
  void operator()(const BarrierOp& op) {
    charge(&ThreadTiming::barrier_ns, op);
  }
  void operator()(const ScaleCOp& op) { charge(&ThreadTiming::other_ns, op); }
  void operator()(const ReduceCOp& op) {
    charge(&ThreadTiming::other_ns, op);
  }
};

template <typename T>
void validate_operands(const GemmPlan& plan, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, MatrixView<T> c) {
  SMM_EXPECT_CODE(a.rows() == plan.shape.m && a.cols() == plan.shape.k,
                  ErrorCode::kBadShape,
                  "A shape does not match the plan");
  SMM_EXPECT_CODE(b.rows() == plan.shape.k && b.cols() == plan.shape.n,
                  ErrorCode::kBadShape,
                  "B shape does not match the plan");
  SMM_EXPECT_CODE(c.rows() == plan.shape.m && c.cols() == plan.shape.n,
                  ErrorCode::kBadShape,
                  "C shape does not match the plan");
  SMM_EXPECT_CODE((a.empty() || a.data() != nullptr) &&
                      (b.empty() || b.data() != nullptr) &&
                      (c.empty() || c.data() != nullptr),
                  ErrorCode::kBadShape,
                  "execute_plan operand has null data");
  const bool want_f32 = plan.scalar == ScalarType::kF32;
  SMM_EXPECT(want_f32 == (sizeof(T) == 4),
             "scalar type does not match the plan");
}

template <typename T>
void execute_plan_impl(const GemmPlan& plan, T alpha, ConstMatrixView<T> a,
                       ConstMatrixView<T> b, T beta, MatrixView<T> c,
                       const PrepackedB<T>* prepacked,
                       std::vector<ThreadTiming>* timings,
                       const CancelToken* cancel) {
  validate_operands(plan, a, b, c);
  ExecContext<T> ctx(plan, alpha, a, b, beta, c, prepacked);
  par::run_parallel(
      plan.nthreads,
      [&](int tid) {
        const auto& ops = plan.thread_ops[static_cast<std::size_t>(tid)];
        // Cooperative cancellation at op boundaries: a stop observed
        // before the first op leaves C untouched; each thread checks its
        // own checker, so a mid-plan cancel unwinds every body (peers
        // parked in a BarrierOp are freed by the poison hook below).
        CancelChecker canceller(cancel);
        if (timings == nullptr) {
          OpRunner<T> runner{ctx};
          for (const auto& op : ops) {
            canceller.check();
            std::visit(runner, op);
          }
        } else {
          ThreadTiming& tt = (*timings)[static_cast<std::size_t>(tid)];
          TimedOpRunner<T> runner{OpRunner<T>{ctx}, tt};
          const double t0 = steady_now_ns();
          for (const auto& op : ops) {
            canceller.check();
            std::visit(runner, op);
          }
          tt.total_ns = steady_now_ns() - t0;
        }
      },
      // A worker that dies can never arrive at its remaining BarrierOps;
      // poison every plan barrier so peers fail instead of blocking
      // forever on an arrival that will never come.
      [&ctx] {
        for (auto& barrier : ctx.barriers) barrier->poison();
      });
}

}  // namespace

template <typename T>
void execute_plan(const GemmPlan& plan, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c,
                  const CancelToken* cancel) {
  execute_plan_impl<T>(plan, alpha, a, b, beta, c, /*prepacked=*/nullptr,
                       /*timings=*/nullptr, cancel);
}

template void execute_plan(const GemmPlan&, float, ConstMatrixView<float>,
                           ConstMatrixView<float>, float, MatrixView<float>,
                           const CancelToken*);
template void execute_plan(const GemmPlan&, double, ConstMatrixView<double>,
                           ConstMatrixView<double>, double,
                           MatrixView<double>, const CancelToken*);

template <typename T>
void execute_plan_timed(const GemmPlan& plan, T alpha, ConstMatrixView<T> a,
                        ConstMatrixView<T> b, T beta, MatrixView<T> c,
                        std::vector<ThreadTiming>& timings,
                        const CancelToken* cancel) {
  timings.assign(static_cast<std::size_t>(plan.nthreads), ThreadTiming{});
  execute_plan_impl<T>(plan, alpha, a, b, beta, c, /*prepacked=*/nullptr,
                       &timings, cancel);
}

template void execute_plan_timed(const GemmPlan&, float,
                                 ConstMatrixView<float>,
                                 ConstMatrixView<float>, float,
                                 MatrixView<float>,
                                 std::vector<ThreadTiming>&,
                                 const CancelToken*);
template void execute_plan_timed(const GemmPlan&, double,
                                 ConstMatrixView<double>,
                                 ConstMatrixView<double>, double,
                                 MatrixView<double>,
                                 std::vector<ThreadTiming>&,
                                 const CancelToken*);

// ---- PrepackedB ------------------------------------------------------------

template <typename T>
PrepackedB<T>::PrepackedB(std::shared_ptr<const GemmPlan> plan,
                          ConstMatrixView<T> b)
    : plan_(std::move(plan)),
      b_(b),
      integrity_mu_(std::make_unique<std::mutex>()) {
  SMM_EXPECT(plan_ != nullptr, "PrepackedB needs a plan");
  SMM_EXPECT_CODE(b.rows() == plan_->shape.k && b.cols() == plan_->shape.n,
                  ErrorCode::kBadShape,
                  "B shape does not match the plan");
  SMM_EXPECT_CODE(b.empty() || b.data() != nullptr, ErrorCode::kBadShape,
                  "PrepackedB: B has null data");
  const bool want_f32 = plan_->scalar == ScalarType::kF32;
  SMM_EXPECT(want_f32 == (sizeof(T) == 4),
             "scalar type does not match the plan");

  // Classify every buffer: materializable iff written exclusively by
  // B-side ops whose regions never overlap (re-packed buffers — several
  // (kk, jj) blocks sharing one pack buffer — must keep packing per
  // call). Kernel K-split slabs and PackA targets are never candidates.
  const std::size_t nbuf = plan_->buffers.size();
  std::vector<bool> b_written(nbuf, false);
  std::vector<bool> disqualified(nbuf, false);
  std::vector<std::vector<std::pair<index_t, index_t>>> regions(nbuf);
  const auto note_region = [&](int buffer, index_t begin, index_t elems) {
    const auto i = static_cast<std::size_t>(buffer);
    b_written[i] = true;
    const index_t end = begin + elems;
    for (const auto& [rb, re] : regions[i])
      if (begin < re && rb < end) disqualified[i] = true;  // overlap
    regions[i].emplace_back(begin, end);
  };
  for (const auto& ops : plan_->thread_ops) {
    for (const auto& op : ops) {
      if (const auto* pb = std::get_if<PackBOp>(&op)) {
        note_region(pb->buffer, pb->dst_offset, pack_b_written_elems(*pb));
      } else if (const auto* cv = std::get_if<ConvertOp>(&op)) {
        const auto i = static_cast<std::size_t>(cv->buffer);
        if (cv->which == ConvertOp::Which::kB) {
          note_region(cv->buffer, 0, plan_->buffers[i].elems);
        } else {
          disqualified[i] = true;
        }
      } else if (const auto* pa = std::get_if<PackAOp>(&op)) {
        disqualified[static_cast<std::size_t>(pa->buffer)] = true;
      } else if (const auto* k = std::get_if<KernelOp>(&op)) {
        if (k->c_buffer >= 0)
          disqualified[static_cast<std::size_t>(k->c_buffer)] = true;
      }
    }
  }

  is_prepacked_.assign(nbuf, false);
  storage_.resize(nbuf);
  try {
    for (std::size_t i = 0; i < nbuf; ++i) {
      if (!b_written[i] || disqualified[i]) continue;
      if (robust::should_fire(robust::FaultSite::kPrepackAlloc))
        throw Error(ErrorCode::kPrepackFallback,
                    "smmkit: injected prepack allocation failure");
      storage_[i].reset(plan_->buffers[i].elems);  // zeroed (pad regions)
      is_prepacked_[i] = true;
      materialized_ = true;
    }
  } catch (const std::bad_alloc&) {
    degrade_to_unmaterialized();
  } catch (const Error& e) {
    // Allocation-class failures degrade to pack-on-the-fly (run() is
    // then exactly execute_plan — never wrong, just not faster);
    // anything else is a real bug and propagates.
    if (e.code() != ErrorCode::kAlloc &&
        e.code() != ErrorCode::kPrepackFallback &&
        e.code() != ErrorCode::kArenaExhausted)
      throw;
    degrade_to_unmaterialized();
  }
  if (!materialized_) return;

  // Pack once: run exactly the ops whose buffers we now own. Order
  // within a buffer does not matter (regions are disjoint).
  for (std::size_t i = 0; i < nbuf; ++i)
    if (is_prepacked_[i]) repack_buffer(i);

  // Seal every materialized buffer, unconditionally: seals are cheap
  // (one checksum per pack), and a handle packed while integrity was off
  // must still validate correctly if the mode is turned on later.
  seals_.assign(nbuf, 0);
  for (std::size_t i = 0; i < nbuf; ++i)
    if (is_prepacked_[i])
      seals_[i] = integrity::content_checksum(
          storage_[i].data(),
          static_cast<std::size_t>(plan_->buffers[i].elems) * sizeof(T));
}

template <typename T>
void PrepackedB<T>::repack_buffer(std::size_t i) const {
  for (const auto& ops : plan_->thread_ops) {
    for (const auto& op : ops) {
      if (const auto* pb = std::get_if<PackBOp>(&op)) {
        if (static_cast<std::size_t>(pb->buffer) == i)
          run_pack_b_op(*pb, b_, storage_[i].data());
      } else if (const auto* cv = std::get_if<ConvertOp>(&op)) {
        if (static_cast<std::size_t>(cv->buffer) == i &&
            cv->which == ConvertOp::Which::kB)
          run_convert_op(*cv, b_, storage_[i].data());
      }
    }
  }
}

template <typename T>
void PrepackedB<T>::validate_storage_locked() const {
  robust::Health& h = robust::health();
  for (std::size_t i = 0; i < storage_.size(); ++i) {
    if (!is_prepacked_[i]) continue;
    const auto bytes =
        static_cast<std::size_t>(plan_->buffers[i].elems) * sizeof(T);
    if (integrity::content_checksum(storage_[i].data(), bytes) == seals_[i])
      continue;
    // The packed bytes rotted after they were blessed. Never feed them to
    // the kernels: repack from the borrowed B (whose bits the caller
    // contracted to keep), or refuse.
    h.integrity_quarantines.fetch_add(1, std::memory_order_relaxed);
    if (!repair_)
      throw Error(ErrorCode::kCacheCorrupted,
                  "prepacked B storage failed its content seal");
    repack_buffer(i);
    if (integrity::content_checksum(storage_[i].data(), bytes) != seals_[i])
      // Still wrong after a fresh repack: the rot is not confined to the
      // cached copy (source B changed, or the corruption is persistent).
      throw Error(ErrorCode::kCacheCorrupted,
                  "prepacked B storage failed its seal after repack");
    h.prepack_repacks.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename T>
bool PrepackedB<T>::corrupt_storage_for_test() {
  for (std::size_t i = 0; i < storage_.size(); ++i) {
    if (!is_prepacked_[i] || plan_->buffers[i].elems == 0) continue;
    T* data = storage_[i].data();
    data[0] = data[0] == T(0) ? T(1) : -data[0];
    return true;
  }
  return false;
}

template <typename T>
void PrepackedB<T>::degrade_to_unmaterialized() {
  // Release whatever was materialized before the failure and fall back
  // to per-call packing for every buffer.
  storage_.clear();
  storage_.resize(plan_->buffers.size());
  is_prepacked_.assign(plan_->buffers.size(), false);
  seals_.clear();
  materialized_ = false;
  robust::health().prepack_fallbacks.fetch_add(1,
                                               std::memory_order_relaxed);
}

template <typename T>
void PrepackedB<T>::run(T alpha, ConstMatrixView<T> a, T beta,
                        MatrixView<T> c, const CancelToken* cancel) const {
  if (materialized_ &&
      integrity::mode() != integrity::AbftMode::kOff) {
    // Serialize validate + (possible) repack + execute on this handle: a
    // repack must never swap packed bytes under a concurrently running
    // executor. One handle per stream keeps this uncontended.
    std::lock_guard<std::mutex> lock(*integrity_mu_);
    for (std::size_t i = 0; i < storage_.size(); ++i)
      if (is_prepacked_[i])
        robust::maybe_corrupt(robust::FaultSite::kPrepackedStoreFlip,
                              storage_[i].data(), plan_->buffers[i].elems);
    validate_storage_locked();
    execute_plan_impl<T>(*plan_, alpha, a, b_, beta, c, this,
                         /*timings=*/nullptr, cancel);
    return;
  }
  execute_plan_impl<T>(*plan_, alpha, a, b_, beta, c, this,
                       /*timings=*/nullptr, cancel);
}

template class PrepackedB<float>;
template class PrepackedB<double>;

}  // namespace smm::plan
