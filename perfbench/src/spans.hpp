// The traced run's span recorder: name, start, end, parent and operation
// id per span, kept in memory and written once at exit. It is the
// benchmark's own, so a change to letdma::obs cannot change how the layers
// are timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the parent span, -1 for an operation
  long op = -1;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  int begin(const char* name, int parent, long op) {
    spans_.push_back(Span{name, now_ns(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; returns false when the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"op\":%ld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.op);
    }
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
};

/// Times one call into a layer as a child of `parent`.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, int parent, long op)
      : rec_(rec), id_(rec.begin(name, parent, op)) {}
  ~Scope() { rec_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
