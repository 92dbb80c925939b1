#include "src/tune/tune_table.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/common/str.h"
#include "src/robust/integrity.h"

namespace smm::tune {

namespace {

constexpr char kMagic[8] = {'S', 'M', 'M', 'T', 'U', 'N', 'E', '1'};
/// 2: the pool hands regions off by spinning, so a version-1 table's
/// dispatch_ns (measured on the parked condvar path, several times the
/// spin handoff) would misprice every parallel split; such tables are
/// refused and the process recalibrates.
/// 3: specs carry host_tiles.
/// 4: the model is calibrated from single-call minima with the barrier
/// timed inside its region; a version-3 table's constants came from
/// batch means and may hold the barrier_ns = 1 clamp (a free barrier).
constexpr std::uint32_t kVersion = 4;

/// First "model name" line of /proc/cpuinfo (x86) or the whole first
/// block's identifying lines (ARM exposes "CPU part"/"CPU implementer").
/// Falls back to a constant when the pseudo-file is unavailable — the
/// core count still differentiates most foreign machines.
std::string cpu_model_string() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 ||
        line.rfind("CPU implementer", 0) == 0 ||
        line.rfind("CPU part", 0) == 0 || line.rfind("Hardware", 0) == 0) {
      out += line;
      out += '\n';
      if (line.rfind("model name", 0) == 0) break;  // one core is enough
    }
  }
  return out.empty() ? std::string("unknown-cpu") : out;
}

// Little serialization helpers: everything goes through fixed-width
// types memcpy'd into a string buffer, so the format does not depend on
// struct layout.
void put_bytes(std::string& buf, const void* p, std::size_t n) {
  buf.append(static_cast<const char*>(p), n);
}
template <typename T>
void put(std::string& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_bytes(buf, &v, sizeof(v));
}

struct Reader {
  const char* p;
  const char* end;
  bool ok = true;

  template <typename T>
  T get() {
    T v{};
    if (!ok || end - p < static_cast<std::ptrdiff_t>(sizeof(v))) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    return v;
  }
};

void put_spec(std::string& buf, const core::BuildSpec& s) {
  put<std::int64_t>(buf, s.mr);
  put<std::int64_t>(buf, s.nr);
  put<std::int64_t>(buf, s.mc);
  put<std::int64_t>(buf, s.kc);
  put<std::int64_t>(buf, s.nc);
  put<std::uint8_t>(buf, s.pack_a ? 1 : 0);
  put<std::uint8_t>(buf, s.pack_b ? 1 : 0);
  put<std::uint8_t>(buf, s.edge_pack_b ? 1 : 0);
  put<std::int32_t>(buf, s.nthreads);
  put<std::int32_t>(buf, s.ways.jc);
  put<std::int32_t>(buf, s.ways.ic);
  put<std::int32_t>(buf, s.ways.jr);
  put<std::int32_t>(buf, s.ways.ir);
  put<std::int32_t>(buf, s.k_parts);
  put<std::uint8_t>(buf, s.host_tiles ? 1 : 0);
}

core::BuildSpec get_spec(Reader& r) {
  core::BuildSpec s;
  s.mr = r.get<std::int64_t>();
  s.nr = r.get<std::int64_t>();
  s.mc = r.get<std::int64_t>();
  s.kc = r.get<std::int64_t>();
  s.nc = r.get<std::int64_t>();
  s.pack_a = r.get<std::uint8_t>() != 0;
  s.pack_b = r.get<std::uint8_t>() != 0;
  s.edge_pack_b = r.get<std::uint8_t>() != 0;
  s.nthreads = r.get<std::int32_t>();
  s.ways.jc = r.get<std::int32_t>();
  s.ways.ic = r.get<std::int32_t>();
  s.ways.jr = r.get<std::int32_t>();
  s.ways.ir = r.get<std::int32_t>();
  s.k_parts = r.get<std::int32_t>();
  s.host_tiles = r.get<std::uint8_t>() != 0;
  return s;
}

void put_model(std::string& buf, const model::ParallelCostModel& m) {
  put<double>(buf, m.flop_ns);
  put<double>(buf, m.pack_ns_per_elem);
  put<double>(buf, m.barrier_ns);
  put<double>(buf, m.dispatch_ns);
  put<std::int32_t>(buf, m.hw_threads);
  put<std::uint8_t>(buf, m.measured ? 1 : 0);
}

model::ParallelCostModel get_model(Reader& r) {
  model::ParallelCostModel m;
  m.flop_ns = r.get<double>();
  m.pack_ns_per_elem = r.get<double>();
  m.barrier_ns = r.get<double>();
  m.dispatch_ns = r.get<double>();
  m.hw_threads = r.get<std::int32_t>();
  m.measured = r.get<std::uint8_t>() != 0;
  return m;
}

}  // namespace

const char* to_string(TableStatus status) {
  switch (status) {
    case TableStatus::kOk:
      return "ok";
    case TableStatus::kMissing:
      return "missing";
    case TableStatus::kCorrupt:
      return "corrupt";
    case TableStatus::kForeign:
      return "foreign";
  }
  return "?";
}

MachineFingerprint machine_fingerprint() {
  static const MachineFingerprint cached = [] {
    MachineFingerprint fp;
    const std::string model = cpu_model_string();
    fp.cpu_hash = integrity::content_checksum(model.data(), model.size());
    fp.cores = std::max(1u, std::thread::hardware_concurrency());
    return fp;
  }();
  return cached;
}

std::string fingerprint_token(const MachineFingerprint& fp) {
  return strprintf("%016llx-%u",
                   static_cast<unsigned long long>(fp.cpu_hash), fp.cores);
}

bool write_table(const std::string& path, const MachineFingerprint& fp,
                 const model::ParallelCostModel& model,
                 const std::vector<TableEntry>& entries) {
  std::string buf;
  put_bytes(buf, kMagic, sizeof(kMagic));
  put<std::uint32_t>(buf, kVersion);
  put<std::uint64_t>(buf, fp.cpu_hash);
  put<std::uint32_t>(buf, fp.cores);
  // The calibrated-constant digest binds the header to the payload: a
  // table whose constants were edited (or rotted) after sealing fails
  // here even if the seal itself were regenerated naively.
  put<std::uint64_t>(buf, model::cost_model_digest(model));
  put_model(buf, model);
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(entries.size()));
  for (const TableEntry& e : entries) {
    put<std::int64_t>(buf, e.key.m);
    put<std::int64_t>(buf, e.key.n);
    put<std::int64_t>(buf, e.key.k);
    put<std::int32_t>(buf, e.key.scalar);
    put<std::int32_t>(buf, e.key.nthreads);
    put<std::uint32_t>(buf, e.epoch);
    put<std::uint8_t>(buf, e.has_override ? 1 : 0);
    put_spec(buf, e.spec);
    put<double>(buf, e.mean_ns);
    put<double>(buf, e.var_ns2);
    put<std::uint64_t>(buf, e.samples);
  }
  const std::uint64_t seal =
      integrity::content_checksum(buf.data(), buf.size());
  put<std::uint64_t>(buf, seal);

  // Temp + rename: a crash mid-write must leave the previous table (or
  // no table) behind, never a torn one — the reader would reject a torn
  // file anyway, but then a good table would have been lost.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

TableStatus read_table(const std::string& path,
                       const MachineFingerprint& expect,
                       model::ParallelCostModel* model,
                       std::vector<TableEntry>* entries) {
  model->measured = false;
  entries->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return TableStatus::kMissing;
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string buf = std::move(contents).str();
  if (buf.size() < sizeof(kMagic) + sizeof(std::uint64_t))
    return TableStatus::kCorrupt;

  // Seal first: nothing inside an unsealed payload is worth parsing.
  const std::size_t body = buf.size() - sizeof(std::uint64_t);
  std::uint64_t seal = 0;
  std::memcpy(&seal, buf.data() + body, sizeof(seal));
  if (integrity::content_checksum(buf.data(), body) != seal)
    return TableStatus::kCorrupt;

  Reader r{buf.data(), buf.data() + body};
  char magic[sizeof(kMagic)];
  for (char& c : magic) c = r.get<char>();
  if (!r.ok || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return TableStatus::kCorrupt;
  if (r.get<std::uint32_t>() != kVersion) return TableStatus::kCorrupt;

  MachineFingerprint fp;
  fp.cpu_hash = r.get<std::uint64_t>();
  fp.cores = r.get<std::uint32_t>();
  if (!r.ok) return TableStatus::kCorrupt;
  if (!(fp == expect)) return TableStatus::kForeign;

  const std::uint64_t digest = r.get<std::uint64_t>();
  const model::ParallelCostModel m = get_model(r);
  if (!r.ok || model::cost_model_digest(m) != digest)
    return TableStatus::kCorrupt;

  const std::uint32_t count = r.get<std::uint32_t>();
  std::vector<TableEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TableEntry e;
    e.key.m = r.get<std::int64_t>();
    e.key.n = r.get<std::int64_t>();
    e.key.k = r.get<std::int64_t>();
    e.key.scalar = r.get<std::int32_t>();
    e.key.nthreads = r.get<std::int32_t>();
    e.epoch = r.get<std::uint32_t>();
    e.has_override = r.get<std::uint8_t>() != 0;
    e.spec = get_spec(r);
    e.mean_ns = r.get<double>();
    e.var_ns2 = r.get<double>();
    e.samples = r.get<std::uint64_t>();
    if (!r.ok) return TableStatus::kCorrupt;
    out.push_back(e);
  }
  // Trailing garbage between the last entry and the seal means the
  // count lied; the seal can't catch that (it covers the garbage too).
  if (r.p != r.end) return TableStatus::kCorrupt;

  *model = m;
  *entries = std::move(out);
  return TableStatus::kOk;
}

}  // namespace smm::tune
