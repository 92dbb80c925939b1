#include "src/sim/pipeline/pipeline_sim.h"

#include <array>
#include <deque>
#include <vector>

#include "src/common/error.h"

namespace smm::sim {

namespace {

using kern::KernelSchedule;
using kern::Stream;
using kern::Uop;
using kern::UopKind;

enum class QueueClass : int { kFp = 0, kLs = 1, kInt = 2 };

QueueClass class_of(UopKind kind) {
  switch (kind) {
    case UopKind::kFma:
    case UopKind::kFmul:
    case UopKind::kFadd:
    case UopKind::kVZero:
    case UopKind::kDup:
      return QueueClass::kFp;
    case UopKind::kLoadVec:
    case UopKind::kLoadPair:
    case UopKind::kLoadScalar:
    case UopKind::kStoreVec:
      return QueueClass::kLs;
    case UopKind::kInt:
    case UopKind::kBranch:
      return QueueClass::kInt;
  }
  return QueueClass::kInt;
}

double latency_of(const Uop& uop, const CoreConfig& core,
                  const StreamLatency& lat) {
  switch (uop.kind) {
    case UopKind::kLoadVec:
    case UopKind::kLoadPair:
    case UopKind::kLoadScalar:
      switch (uop.stream) {
        case Stream::kA:
          return lat.a;
        case Stream::kB:
          return lat.b;
        case Stream::kC:
          return lat.c;
        case Stream::kNone:
          return core.lat_l1;
      }
      return core.lat_l1;
    case UopKind::kStoreVec:
      return 1.0;
    case UopKind::kFma:
      return core.lat_fma;
    case UopKind::kFmul:
      return core.lat_fmul;
    case UopKind::kFadd:
      return core.lat_fadd;
    case UopKind::kVZero:
      return core.lat_vzero;
    case UopKind::kDup:
      return core.lat_dup;
    case UopKind::kInt:
      return core.lat_int;
    case UopKind::kBranch:
      return core.lat_branch;
  }
  return 1.0;
}

struct InFlight {
  std::int64_t seq = -1;
  UopKind kind = UopKind::kInt;
  QueueClass cls = QueueClass::kInt;
  // Producer sequence numbers this uop waits on (-1 = none).
  std::array<std::int64_t, 3> deps{-1, -1, -1};
  double complete = -1.0;  // valid once issued
  bool issued = false;
  double latency = 0.0;
};

// Generates the dynamic uop stream: prologue, `bodies` bodies, epilogue.
class StreamGen {
 public:
  StreamGen(const KernelSchedule& sched, index_t bodies)
      : sched_(sched), bodies_(bodies) {}

  const Uop* next() {
    if (phase_ == 0) {
      if (pos_ < sched_.prologue.size()) return &sched_.prologue[pos_++];
      phase_ = sched_.body.empty() || bodies_ == 0 ? 2 : 1;
      pos_ = 0;
    }
    if (phase_ == 1) {
      if (pos_ < sched_.body.size()) return &sched_.body[pos_++];
      pos_ = 0;
      if (++body_done_ < bodies_) return next();
      phase_ = 2;
    }
    if (pos_ < sched_.epilogue.size()) return &sched_.epilogue[pos_++];
    return nullptr;
  }

 private:
  const KernelSchedule& sched_;
  index_t bodies_;
  int phase_ = 0;
  std::size_t pos_ = 0;
  index_t body_done_ = 0;
};

}  // namespace

PipelineResult simulate_schedule(const KernelSchedule& schedule,
                                 index_t bodies, const CoreConfig& core,
                                 const StreamLatency& latency) {
  PipelineResult result;
  StreamGen gen(schedule, bodies);

  // Renaming table: architectural register -> seq of last producer.
  std::array<std::int64_t, 160> reg_map;
  reg_map.fill(-1);

  std::deque<InFlight> rob;  // front = oldest
  std::array<std::vector<std::int64_t>, 3> queues;  // seqs awaiting issue
  const std::array<int, 3> queue_cap{core.fp_queue, core.ls_queue,
                                     core.int_queue};

  // Completion lookup for an arbitrary in-flight/retired producer: retired
  // uops are always complete, so only track in-flight ones.
  auto find_entry = [&](std::int64_t seq) -> const InFlight* {
    if (rob.empty() || seq < rob.front().seq) return nullptr;  // retired
    const auto idx = static_cast<std::size_t>(seq - rob.front().seq);
    return idx < rob.size() ? &rob[idx] : nullptr;
  };
  auto dep_ready_time = [&](const InFlight& e) -> double {
    // Returns +inf while any producer is unissued.
    double ready = 0.0;
    for (const std::int64_t d : e.deps) {
      if (d < 0) continue;
      const InFlight* p = find_entry(d);
      if (p == nullptr) continue;  // retired -> done
      if (!p->issued) return -1.0;
      if (p->complete > ready) ready = p->complete;
    }
    return ready;
  };

  const Uop* pending = gen.next();
  std::int64_t next_seq = 0;
  double cycle = 0.0;

  while (pending != nullptr || !rob.empty()) {
    // --- Issue: per class, up to the port counts, oldest ready first.
    int fp_issued = 0;
    int loads_issued = 0;
    int stores_issued = 0;
    int ints_issued = 0;
    for (int c = 0; c < 3; ++c) {
      auto& q = queues[static_cast<std::size_t>(c)];
      for (auto it = q.begin(); it != q.end();) {
        InFlight& e =
            rob[static_cast<std::size_t>(*it - rob.front().seq)];
        int* budget = &ints_issued;
        int limit = core.int_ports;
        switch (e.cls) {
          case QueueClass::kFp:
            budget = &fp_issued;
            limit = core.fma_ports;
            break;
          case QueueClass::kLs:
            if (e.kind == UopKind::kStoreVec) {
              budget = &stores_issued;
              limit = core.store_ports;
            } else {
              budget = &loads_issued;
              limit = core.load_ports;
            }
            break;
          case QueueClass::kInt:  // the defaults above
            break;
        }
        if (*budget >= limit) {
          ++it;
          continue;
        }
        const double ready = dep_ready_time(e);
        if (ready < 0.0 || ready > cycle) {
          // In-order FP issue: a stalled head blocks younger FP uops
          // (no bypass) — the Fig. 7 mechanism.
          if (e.cls == QueueClass::kFp && core.fp_in_order) break;
          ++it;
          continue;
        }
        e.issued = true;
        e.complete = cycle + e.latency;
        ++*budget;
        it = q.erase(it);
      }
    }

    // --- Dispatch: in order, width-limited, blocked by full ROB/queue.
    bool stalled = false;
    for (int d = 0; d < core.dispatch_width && pending != nullptr; ++d) {
      if (static_cast<int>(rob.size()) >= core.rob_size) {
        stalled = true;
        break;
      }
      const QueueClass cls = class_of(pending->kind);
      auto& q = queues[static_cast<int>(cls)];
      if (static_cast<int>(q.size()) >=
          queue_cap[static_cast<std::size_t>(static_cast<int>(cls))]) {
        stalled = true;
        break;
      }
      InFlight e;
      e.seq = next_seq++;
      e.kind = pending->kind;
      e.cls = cls;
      e.latency = latency_of(*pending, core, latency);
      auto dep_of = [&](std::int16_t reg) -> std::int64_t {
        return reg < 0 ? -1 : reg_map[static_cast<std::size_t>(reg)];
      };
      e.deps = {dep_of(pending->src1), dep_of(pending->src2),
                dep_of(pending->src3)};
      if (pending->dst >= 0)
        reg_map[static_cast<std::size_t>(pending->dst)] = e.seq;
      if (pending->kind == UopKind::kFma || pending->kind == UopKind::kFmul)
        ++result.fma_uops;
      ++result.uops;
      rob.push_back(e);
      q.push_back(e.seq);
      pending = gen.next();
    }
    if (stalled) result.dispatch_stall_cycles += 1.0;

    // --- Retire: in order, completed entries only.
    for (int r = 0; r < core.dispatch_width && !rob.empty(); ++r) {
      const InFlight& head = rob.front();
      if (!head.issued || head.complete > cycle) break;
      // Clean the renaming table: a retired producer counts as ready.
      rob.pop_front();
    }

    cycle += 1.0;
    SMM_EXPECT(cycle < 1e9, "pipeline simulation did not converge");
  }

  result.cycles = cycle;
  result.fma_port_utilization =
      result.cycles > 0
          ? static_cast<double>(result.fma_uops) /
                (result.cycles * core.fma_ports)
          : 0.0;
  return result;
}

namespace {
constexpr index_t kWarmBodies = 32;
constexpr index_t kLongBodies = 96;
}  // namespace

double steady_state_cycles_per_k(const KernelSchedule& schedule,
                                 const CoreConfig& core,
                                 const StreamLatency& latency) {
  const double c1 =
      simulate_schedule(schedule, kWarmBodies, core, latency).cycles;
  const double c2 =
      simulate_schedule(schedule, kLongBodies, core, latency).cycles;
  return (c2 - c1) /
         static_cast<double>((kLongBodies - kWarmBodies) * schedule.unroll);
}

double kernel_invocation_cycles(const KernelSchedule& schedule, index_t kc,
                                const CoreConfig& core,
                                const StreamLatency& latency) {
  SMM_EXPECT(kc >= 0, "kc must be non-negative");
  const index_t unroll = std::max(1, schedule.unroll);
  const index_t bodies = (kc + unroll - 1) / unroll;
  if (bodies <= kLongBodies)
    return simulate_schedule(schedule, bodies, core, latency).cycles;
  const double base =
      simulate_schedule(schedule, kLongBodies, core, latency).cycles;
  const double per_body =
      steady_state_cycles_per_k(schedule, core, latency) *
      static_cast<double>(unroll);
  return base + per_body * static_cast<double>(bodies - kLongBodies);
}

}  // namespace smm::sim
