// Reusable per-thread scratch arena for plan execution.
//
// Every execute_plan call used to heap-allocate one AlignedBuffer per
// plan buffer declaration — malloc traffic on the exact path the paper
// says is dominated by fixed per-call costs for small shapes. The arena
// keeps one cache-aligned slab per thread, sized to the high-water mark
// of every region it has served, and carves the plan's buffers out of it
// with bump-pointer arithmetic: a warm same-shape call performs zero
// heap allocations. Worker threads of the persistent pool each own an
// arena, so the slabs stay warm across calls for as long as the pool
// lives.
//
// The arena is deliberately not nested: one lease at a time per thread.
// A caller that finds its thread's arena already leased (an execute
// within an execute) falls back to plain per-buffer allocation, so
// composition can never corrupt a live lease.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/aligned_buffer.h"
#include "src/common/types.h"
#include "src/robust/health.h"

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

  /// Carves `sizes` (element counts of T, each slice cache-aligned and
  /// zero-filled) out of the arena for the lifetime of the lease. A size
  /// of 0 yields a null slice. `ptr(i)` addresses slice i. A slice i < 64
  /// whose bit is set in `overwritten` is not zeroed: the caller writes
  /// every element of it before reading one, and its bytes until then
  /// are whatever the last lease left (or zero, on a freshly grown slab).
  template <typename T>
  class Lease {
   public:
    Lease(ExecScratch& arena, const std::vector<index_t>& sizes,
          std::uint64_t overwritten = 0) {
      // Consult the allocation fault-injection site once per non-empty
      // slice — exactly what the per-buffer AlignedBuffer path did — so
      // deterministic alloc-fault tests fire identically warm or cold.
      for (const index_t elems : sizes)
        if (elems > 0 &&
            robust::should_fire(robust::FaultSite::kAllocFail))
          throw Error(ErrorCode::kAlloc,
                      "smmkit: injected scratch allocation failure");
      ptrs_.resize(sizes.size(), nullptr);
      if (!arena.busy_) {
        try {
          arena.busy_ = true;
          std::size_t total = 0;
          for (const index_t elems : sizes)
            total += aligned_bytes<T>(elems);
          const bool fresh = arena.reserve(total);
          arena_ = &arena;
          ++arena.leases_;
          std::size_t off = 0;
          for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (sizes[i] == 0) continue;
            ptrs_[i] = reinterpret_cast<T*>(arena.slab_.data() + off);
            const std::size_t bytes = aligned_bytes<T>(sizes[i]);
            if (!fresh && !(i < 64 && (overwritten >> i & 1) != 0))
              std::memset(arena.slab_.data() + off, 0, bytes);
            off += bytes;
          }
          return;
        } catch (...) {
          // Slab growth failed (injected kArenaExhausted, or a real
          // bad_alloc under memory pressure): un-lease the arena and
          // degrade to the per-buffer path below. A shrunken heap may
          // still serve N small buffers after refusing one big slab —
          // and if it cannot, the per-buffer failure propagates to the
          // guarded executor's alloc-fault handling as before.
          arena.busy_ = false;
          arena_ = nullptr;
          robust::health().arena_fallbacks.fetch_add(
              1, std::memory_order_relaxed);
        }
      }
      // Nested execute on this thread (or arena fallback): plain
      // per-buffer allocation, the pre-arena behaviour (AlignedBuffer
      // value-initializes, and its own injection site stays disarmed
      // here — already consulted).
      fallback_.reserve(sizes.size());
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        fallback_.emplace_back();
        fallback_.back().reset_unchecked(sizes[i]);
        ptrs_[i] = fallback_.back().data();
      }
    }

    ~Lease() {
      if (arena_ != nullptr) arena_->busy_ = false;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] T* ptr(std::size_t i) const { return ptrs_[i]; }
    [[nodiscard]] bool used_arena() const { return arena_ != nullptr; }

   private:
    ExecScratch* arena_ = nullptr;
    std::vector<T*> ptrs_;
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
