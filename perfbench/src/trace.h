// Spans recorded by the traced run, kept in memory and written at the end
// in the Chrome trace-event format that src/sim/exec/trace_export writes
// for simulated timelines (an array of "X" events plus a process_name
// record), so one viewer (chrome://tracing, ui.perfetto.dev) opens both.
// Timestamps are microseconds from the first span.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class TraceSink {
 public:
  TraceSink() { events_.reserve(1 << 16); }

  /// Record [start_ns, end_ns) as one span. `cat` names the layer;
  /// `name` and `cat` must outlive the sink (spans store the pointers).
  void span(const char* name, const char* cat, int tid,
            std::int64_t start_ns, std::int64_t end_ns) {
    if (origin_ < 0 || start_ns < origin_) origin_ = start_ns;
    events_.push_back(Event{name, cat, tid, start_ns, end_ns});
  }

  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Write the first `per_category` spans of every category (the file
  /// stays viewable however long the run); returns the number written,
  /// or -1 when the file cannot be written.
  long write(const std::string& path, const std::string& process,
             std::size_t per_category = 20000) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return -1;
    std::fprintf(f,
                 "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 process.c_str());
    std::map<std::string, std::size_t> written;
    long total = 0;
    for (const Event& e : events_) {
      if (written[e.cat]++ >= per_category) continue;
      ++total;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                   e.name, e.cat, e.tid,
                   static_cast<double>(e.start - origin_) * 1e-3,
                   static_cast<double>(e.end - e.start) * 1e-3);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0 ? total : -1;
  }

 private:
  struct Event {
    const char* name;
    const char* cat;
    int tid;
    std::int64_t start, end;
  };
  std::vector<Event> events_;
  std::int64_t origin_ = -1;
};

}  // namespace perfbench
