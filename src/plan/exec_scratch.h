// Reusable per-thread scratch arena for plan execution.
//
// Every execute_plan call used to heap-allocate one AlignedBuffer per
// plan buffer declaration — malloc traffic on the exact path the paper
// says is dominated by fixed per-call costs for small shapes. The arena
// keeps one cache-aligned slab per thread, sized to the high-water mark
// of every region it has served, and carves the plan's buffers out of it
// with bump-pointer arithmetic, together with the per-call bookkeeping
// (the slice table and the plan's barriers): a warm same-shape call
// performs zero heap allocations. Worker threads of the persistent pool
// each own an arena, so the slabs stay warm across calls for as long as
// the pool lives.
//
// The arena is deliberately not nested: one lease at a time per thread.
// A caller that finds its thread's arena already leased (an execute
// within an execute) falls back to plain per-buffer allocation, so
// composition can never corrupt a live lease.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "src/common/aligned_buffer.h"
#include "src/common/types.h"
#include "src/plan/plan.h"
#include "src/robust/health.h"
#include "src/threading/barrier.h"

namespace smm::plan {

class ExecScratch {
 public:
  /// The calling thread's arena (thread-local; created on first use).
  static ExecScratch& local();

  ExecScratch() = default;
  ExecScratch(const ExecScratch&) = delete;
  ExecScratch& operator=(const ExecScratch&) = delete;

  /// Bytes the slab has grown to — the high-water mark over all leases.
  /// Stable across repeated same-shape calls (asserted in tests: warm
  /// calls allocate nothing).
  [[nodiscard]] std::size_t high_water_bytes() const {
    return capacity_;
  }
  /// How many times the slab had to (re)allocate.
  [[nodiscard]] std::size_t grow_count() const { return grows_; }
  /// Leases served (arena path only, not fallback).
  [[nodiscard]] std::size_t lease_count() const { return leases_; }

  /// Carves `count` slices out of the arena for the lifetime of the
  /// lease — slice i holds size_of(i) elements of T, cache-aligned and
  /// zero-filled; a size of 0 yields a null slice — plus one par::Barrier
  /// per entry of `barriers`. The slice table and the barriers live in
  /// the slab too, so a warm same-plan lease allocates nothing. A slice
  /// i < 64 whose bit is set in `overwritten` is not zeroed: the caller
  /// writes every element of it before reading one, and its bytes until
  /// then are whatever the last lease left (or zero, on a freshly grown
  /// slab).
  template <typename T>
  class Lease {
    static_assert(alignof(par::Barrier) <= kBufferAlignment);

   public:
    template <typename SizeOf>
    Lease(ExecScratch& arena, std::size_t count, SizeOf size_of,
          std::uint64_t overwritten = 0,
          std::span<const BarrierDecl> barriers = {})
        : count_(count) {
      // Consult the allocation fault-injection site once per non-empty
      // slice — exactly what the per-buffer AlignedBuffer path did — so
      // deterministic alloc-fault tests fire identically warm or cold.
      for (std::size_t i = 0; i < count; ++i)
        if (size_of(i) > 0 &&
            robust::should_fire(robust::FaultSite::kAllocFail))
          throw Error(ErrorCode::kAlloc,
                      "smmkit: injected scratch allocation failure");
      const std::size_t table_bytes = aligned_bytes<T*>(
          static_cast<index_t>(count));
      const std::size_t header = table_bytes +
          aligned_bytes<par::Barrier>(static_cast<index_t>(barriers.size()));
      unsigned char* base = nullptr;
      bool fresh = false;
      if (!arena.busy_) {
        try {
          arena.busy_ = true;
          std::size_t total = header;
          for (std::size_t i = 0; i < count; ++i)
            total += aligned_bytes<T>(size_of(i));
          fresh = arena.reserve(total);
          arena_ = &arena;
          ++arena.leases_;
          base = arena.slab_.data();
        } catch (...) {
          // Slab growth failed (injected kArenaExhausted, or a real
          // bad_alloc under memory pressure): un-lease the arena and
          // degrade to the per-buffer path below. A shrunken heap may
          // still serve N small buffers after refusing one big slab —
          // and if it cannot, the per-buffer failure propagates to the
          // guarded executor's alloc-fault handling as before.
          arena.busy_ = false;
          robust::health().arena_fallbacks.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      try {
        if (arena_ == nullptr) {
          // Nested execute on this thread (or arena fallback): a private
          // header and plain per-buffer allocation, the pre-arena
          // behaviour (AlignedBuffer value-initializes, and its own
          // injection site stays disarmed here — already consulted).
          own_header_.reset_unchecked(static_cast<index_t>(header));
          base = own_header_.data();
        }
        table_ = reinterpret_cast<T**>(base);
        barrier_mem_ = base + table_bytes;
        std::size_t off = header;
        if (arena_ == nullptr) fallback_.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          const index_t elems = size_of(i);
          if (arena_ == nullptr) {
            fallback_.emplace_back();
            fallback_.back().reset_unchecked(elems);
            table_[i] = fallback_.back().data();
            continue;
          }
          table_[i] = nullptr;
          if (elems == 0) continue;
          table_[i] = reinterpret_cast<T*>(base + off);
          const std::size_t bytes = aligned_bytes<T>(elems);
          if (!fresh && !(i < 64 && (overwritten >> i & 1) != 0))
            std::memset(base + off, 0, bytes);
          off += bytes;
        }
        for (; barriers_ < barriers.size(); ++barriers_)
          ::new (barrier_mem_ + barriers_ * sizeof(par::Barrier))
              par::Barrier(barriers[barriers_].participants);
      } catch (...) {
        release();
        throw;
      }
    }

    /// A lease of `sizes.size()` slices and no barriers.
    Lease(ExecScratch& arena, const std::vector<index_t>& sizes,
          std::uint64_t overwritten = 0)
        : Lease(arena, sizes.size(),
                [&sizes](std::size_t i) { return sizes[i]; },
                overwritten) {}

    ~Lease() { release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] T* ptr(std::size_t i) const { return table_[i]; }
    /// Points slice i at storage the lease does not own (a prepacked
    /// buffer that needs no scratch).
    void bind(std::size_t i, T* data) { table_[i] = data; }
    [[nodiscard]] par::Barrier& barrier(std::size_t i) const {
      return *std::launder(reinterpret_cast<par::Barrier*>(
          barrier_mem_ + i * sizeof(par::Barrier)));
    }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool used_arena() const { return arena_ != nullptr; }

   private:
    void release() {
      while (barriers_ > 0) barrier(--barriers_).~Barrier();
      if (arena_ != nullptr) arena_->busy_ = false;
      arena_ = nullptr;
    }

    ExecScratch* arena_ = nullptr;
    std::size_t count_ = 0;
    T** table_ = nullptr;
    unsigned char* barrier_mem_ = nullptr;
    std::size_t barriers_ = 0;  ///< constructed so far
    AlignedBuffer<unsigned char> own_header_;
    std::vector<AlignedBuffer<T>> fallback_;
  };

 private:
  template <typename T>
  static std::size_t aligned_bytes(index_t elems) {
    const std::size_t bytes =
        static_cast<std::size_t>(elems) * sizeof(T);
    return (bytes + kBufferAlignment - 1) / kBufferAlignment *
           kBufferAlignment;
  }

  /// Grows the slab to `bytes` if needed; true when it was just
  /// (re)allocated, and so is all zero.
  bool reserve(std::size_t bytes);

  // The slab never consults the kAllocFail site (the lease already did,
  // once per logical buffer): AlignedBuffer::reset_unchecked. It has its
  // own kArenaExhausted site in reserve, which models the slab
  // itself failing — the Lease catches that and falls back per-buffer.
  AlignedBuffer<unsigned char> slab_;
  std::size_t capacity_ = 0;
  std::size_t grows_ = 0;
  std::size_t leases_ = 0;
  bool busy_ = false;
};

}  // namespace smm::plan
