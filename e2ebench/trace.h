// In-memory span recorder of the traced benchmark mode. Spans are taken
// in the benchmark's own code around its calls into each layer's public
// functions; every span carries the id of the query it belongs to and the
// span that caused it. At exit the spans are written as Chrome trace-event
// JSON (load in chrome://tracing or Perfetto), and per-layer self time —
// a span's duration minus the part its child spans cover — is summed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "host.h"

namespace e2e {

class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t query = 0;
    int parent = -1;
    double start_ms = 0;
    double end_ms = 0;
  };

  /// A disabled tracer records nothing; Begin returns -1 and End ignores it.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const std::string& name, uint64_t query, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, query, parent, NowMs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ms = NowMs();
  }

  /// Durations (ms) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }

  /// Self time (ms) summed per span name.
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          spans_[i].end_ms - spans_[i].start_ms - child[i];
    }
    return self;
  }

  /// Write the Chrome trace-event file ("X" complete events, one tid per
  /// query so each query's spans nest on their own track). `meta` is a
  /// preformatted JSON object stored under "otherData".
  bool WriteChromeTrace(const std::string& path, const std::string& meta,
                        double origin_ms) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n", meta.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"query\": %llu, \"parent\": %d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<unsigned long long>(s.query),
                   (s.start_ms - origin_ms) * 1e3,
                   (s.end_ms - s.start_ms) * 1e3,
                   static_cast<unsigned long long>(s.query), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, uint64_t query,
             int parent = -1)
      : t_(t), id_(t.Begin(name, query, parent)) {}
  ~ScopedSpan() { t_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

}  // namespace e2e
