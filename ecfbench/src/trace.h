// Spans of the traced mode: one record per call the benchmark makes into a
// layer of the simulator (parse, build, plan, run, finish, format, fork,
// what-if). Spans are kept in memory and written as JSONL when the run ends;
// a layer's self time is its span minus the time its child spans cover.
//
// With tracing off, opening a span is one branch and records nothing, so the
// untraced units that give the end-to-end metrics pay no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace ecfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double since_s(std::int64_t t0_ns) { return static_cast<double>(now_ns() - t0_ns) * 1e-9; }

struct Span {
  const char* name = "";  // string literal: a layer boundary name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::int32_t unit = -1;    // repeated-unit id; -1 outside any unit
};

class Tracer {
 public:
  void set_on(bool on) { on_ = on; }
  void set_unit(int unit) { unit_ = unit; }

  int open(const char* name) {
    if (!on_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), unit_});
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  // Inclusive seconds spent in spans named `name`, summed per unit id.
  std::map<int, double> total_by_unit(const std::string& name) const {
    std::map<int, double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out[s.unit] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    return out;
  }

  // Self seconds per span name over the whole run (span minus its children).
  std::map<std::string, double> self_by_name() const {
    const std::vector<std::int64_t> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  // One JSON object per span: name, start/end (ns, steady clock), parent
  // index, unit id and self time. Returns false when the file cannot be
  // written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"unit\":%d,\"self_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.unit,
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  // Each span's duration minus the durations of its direct children.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[i] += s.end_ns - s.start_ns;
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
    return self;
  }

  bool on_ = false;
  int unit_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span around one call into a layer.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name) : tracer_(tracer), idx_(tracer.open(name)) {}
  ~SpanScope() { tracer_.close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int idx_;
};

}  // namespace ecfbench
