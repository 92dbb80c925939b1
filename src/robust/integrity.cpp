#include "src/robust/integrity.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "src/common/env.h"
#include "src/plan/plan.h"

namespace smm::integrity {

const char* to_string(AbftMode mode) {
  switch (mode) {
    case AbftMode::kAuto:
      return "auto";
    case AbftMode::kOff:
      return "off";
    case AbftMode::kDetect:
      return "detect";
    case AbftMode::kCorrect:
      return "correct";
  }
  return "?";
}

AbftMode mode_from_env() {
  const std::string v = env::read_string("SMMKIT_ABFT", "detect");
  if (v == "off") return AbftMode::kOff;
  if (v == "detect") return AbftMode::kDetect;
  if (v == "correct") return AbftMode::kCorrect;
  return AbftMode::kDetect;  // unparsable: keep the safe default
}

namespace {
// kAuto (0) doubles as "no override".
std::atomic<std::uint8_t> g_override{
    static_cast<std::uint8_t>(AbftMode::kAuto)};
std::atomic<int> g_repair_suppression_holds{0};
}  // namespace

AbftMode mode() {
  const auto cap = [](AbftMode m) {
    // Brownout (DESIGN.md §15): correct-mode's repair work is optional
    // load a degraded runtime sheds; detection is not.
    return m == AbftMode::kCorrect &&
                   g_repair_suppression_holds.load(
                       std::memory_order_relaxed) > 0
               ? AbftMode::kDetect
               : m;
  };
  const auto ov =
      static_cast<AbftMode>(g_override.load(std::memory_order_relaxed));
  if (ov != AbftMode::kAuto) return cap(ov);
  // The env knob is read once: getenv on every plan-cache hit would put a
  // linear environ scan on the warm path.
  static const AbftMode env = mode_from_env();
  return cap(env);
}

void set_mode_override(AbftMode mode) {
  g_override.store(static_cast<std::uint8_t>(mode),
                   std::memory_order_relaxed);
}

void hold_repair_suppression() {
  g_repair_suppression_holds.fetch_add(1, std::memory_order_relaxed);
}

void release_repair_suppression() {
  // Clamped at zero, like tune's sampling holds: a stray extra release
  // must not bank a negative count against the next brownout.
  int held = g_repair_suppression_holds.load(std::memory_order_relaxed);
  while (held > 0 && !g_repair_suppression_holds.compare_exchange_weak(
                         held, held - 1, std::memory_order_relaxed)) {
  }
}

bool repair_suppressed() {
  return g_repair_suppression_holds.load(std::memory_order_relaxed) > 0;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Four independent FNV-1a lanes: word i of the stream goes to lane
/// i % 4, so the four xor-multiply chains run in parallel instead of one
/// chain of multiplies serializing the hash. finish() folds the lanes
/// into one FNV-1a chain. Every step is a bijection of its lane (xor,
/// then multiply by an odd prime mod 2^64), so changing any one word
/// changes its lane's final value, and the fold then changes the result.
class LaneHasher {
 public:
  /// One field group, zero-padded to whole blocks so every group starts
  /// at lane 0. Groups of variable length carry their own count word.
  template <std::size_t N>
  void words(const std::uint64_t (&w)[N]) {
    const auto at = [&w](std::size_t i) { return i < N ? w[i] : 0; };
    // The lanes are copied to locals (the words are uint64_t too, so the
    // compiler would otherwise store and reload every lane around every
    // word), and the loop is fully unrolled, so each word is xored
    // straight from its field.
    std::uint64_t a = l0_, b = l1_, c = l2_, d = l3_;
#pragma GCC unroll 16
    for (std::size_t i = 0; i < N; i += 4) {
      a = (a ^ at(i)) * kFnvPrime;
      b = (b ^ at(i + 1)) * kFnvPrime;
      c = (c ^ at(i + 2)) * kFnvPrime;
      d = (d ^ at(i + 3)) * kFnvPrime;
    }
    l0_ = a;
    l1_ = b;
    l2_ = c;
    l3_ = d;
  }

  /// A variable-length list, four values per block, zero-padded at the
  /// end; its length is part of an earlier group.
  template <typename Range, typename Proj>
  void list(const Range& range, Proj proj) {
    std::uint64_t t[4] = {};
    std::size_t j = 0;
    for (const auto& x : range) {
      t[j++] = proj(x);
      if (j == 4) {
        words(t);
        j = 0;
      }
    }
    if (j == 0) return;
    std::fill(t + j, t + 4, 0);
    words(t);
  }

  [[nodiscard]] std::uint64_t finish(std::uint64_t tail) const {
    std::uint64_t h = kFnvOffset;
    for (const std::uint64_t lane : {l0_, l1_, l2_, l3_, tail})
      h = (h ^ lane) * kFnvPrime;
    return h;
  }

 private:
  // Distinct seeds, so words moved between lanes do not hash alike.
  std::uint64_t l0_ = kFnvOffset;
  std::uint64_t l1_ = kFnvOffset ^ 1;
  std::uint64_t l2_ = kFnvOffset ^ 2;
  std::uint64_t l3_ = kFnvOffset ^ 3;
};

/// One field as a hash word (index_t, int and enum fields alike).
template <typename V>
std::uint64_t word(V v) {
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::uint64_t content_checksum(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  LaneHasher hash;
  constexpr std::size_t kBlock = 4 * sizeof(std::uint64_t);
  std::size_t i = 0;
  for (; i + kBlock <= bytes; i += kBlock) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, kBlock);
    hash.words(w);
  }
  if (i < bytes) {
    std::uint64_t w[4] = {};
    std::memcpy(w, p + i, bytes - i);
    hash.words(w);
  }
  return hash.finish(static_cast<std::uint64_t>(bytes));  // length guard
}

std::uint64_t plan_seal(const plan::GemmPlan& plan) {
  using namespace smm::plan;
  LaneHasher hash;
  hash.words({content_checksum(plan.strategy.data(), plan.strategy.size()),
              word(plan.shape.m), word(plan.shape.n), word(plan.shape.k),
              word(plan.scalar), word(plan.nthreads),
              plan.conversion_outside_timing ? 1u : 0u,
              word(plan.blocking.mc), word(plan.blocking.kc),
              word(plan.blocking.nc), word(plan.blocking.mr),
              word(plan.blocking.nr), plan.buffers.size(),
              plan.barriers.size(), plan.thread_ops.size()});
  hash.list(plan.buffers, [](const BufferDecl& b) { return word(b.elems); });
  hash.list(plan.barriers,
            [](const BarrierDecl& b) { return word(b.participants); });

  struct OpSealer {
    LaneHasher& hash;
    void chunks(const std::vector<index_t>& c) const {
      hash.list(c, [](index_t v) { return word(v); });
    }
    void operator()(const PackAOp& op) const {
      hash.words({1, word(op.buffer), word(op.dst_offset), word(op.i0),
                  word(op.k0), word(op.mc), word(op.kc), word(op.mr),
                  op.pad ? 1u : 0u, op.chunks.size()});
      chunks(op.chunks);
    }
    void operator()(const PackBOp& op) const {
      hash.words({2, word(op.buffer), word(op.dst_offset), word(op.k0),
                  word(op.j0), word(op.kc), word(op.nc), word(op.nr),
                  op.pad ? 1u : 0u, op.chunks.size()});
      chunks(op.chunks);
    }
    void operator()(const ConvertOp& op) const {
      hash.words({3, word(op.which), word(op.buffer), word(op.ps),
                  op.transpose ? 1u : 0u});
    }
    void operator()(const KernelOp& op) const {
      const OperandRef& a = op.a;
      const OperandRef& b = op.b;
      hash.words({4, word(op.kernel), word(op.kc), word(op.i0), word(op.j0),
                  word(op.useful_m), word(op.useful_n), word(a.kind),
                  word(a.buffer), word(a.offset), word(a.ps), word(a.pstride),
                  word(a.kstride), word(a.row0), word(a.col0), word(b.kind),
                  word(b.buffer), word(b.offset), word(b.ps), word(b.pstride),
                  word(b.kstride), word(b.row0), word(b.col0),
                  op.first_k_block ? 1u : 0u, word(op.c_buffer),
                  word(op.c_offset), word(op.c_ld)});
    }
    void operator()(const BarrierOp& op) const {
      hash.words({5, word(op.barrier)});
    }
    void operator()(const ScaleCOp& op) const {
      hash.words({6, word(op.i0), word(op.j0), word(op.rows), word(op.cols)});
    }
    void operator()(const ReduceCOp& op) const {
      hash.words({7, word(op.buffer), word(op.i0), word(op.j0), word(op.rows),
                  word(op.cols), word(op.ld), word(op.offset),
                  word(op.part_stride), word(op.parts)});
    }
  };

  const OpSealer sealer{hash};
  for (const auto& ops : plan.thread_ops) {
    hash.words({ops.size()});
    for (const auto& op : ops) std::visit(sealer, op);
  }
  return hash.finish(0);
}

bool corrupt_plan_for_test(plan::GemmPlan& plan) {
  for (auto& ops : plan.thread_ops) {
    for (auto& op : ops) {
      if (auto* k = std::get_if<plan::KernelOp>(&op)) {
        k->first_k_block = !k->first_k_block;
        return true;
      }
    }
  }
  return false;
}

}  // namespace smm::integrity
