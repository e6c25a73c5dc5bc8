// In-memory span recorder for the benchmark's traced run. The benchmark
// wraps its calls into each layer's public API in a Scope; spans stay in
// memory until the run ends, when the per-layer metrics are derived from
// them and they are written out as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing).
//
// One Tracer is written by one thread (the benchmark's driving thread);
// the program's own threads are never traced from here. A null Tracer*
// makes every Scope a no-op, which is how the untraced run measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct Span {
    const char* name = "";  // static string
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint32_t parent = kNoParent;  // index of the enclosing span
  };

  Tracer() : origin_ns_(NowNs()) { spans_.reserve(1 << 16); }

  std::uint32_t Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(std::uint32_t id) {
    spans_[id].dur_ns = NowNs() - spans_[id].start_ns;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  // A span timed by the caller (for calls whose name depends on outcome).
  void Record(const char* name, std::int64_t start_ns, std::int64_t dur_ns) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.start_ns = start_ns;
    s.dur_ns = dur_ns;
    spans_.push_back(s);
  }

  // Durations (ns) of every closed span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.dur_ns));
    }
    return out;
  }

  double TotalNs(const std::string& name) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (name == s.name) total += static_cast<double>(s.dur_ns);
    }
    return total;
  }

  // Chrome trace-event JSON: one complete ("X") event per span, with the
  // parent's index in args so the causal chain survives the export.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
    std::fputs("],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// RAII span; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
