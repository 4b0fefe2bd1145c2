#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/util.h"

/// \file trace.h
/// In-memory spans recorded by the benchmark around its calls into each
/// layer's public functions. Spans carry a name, the layer they charge,
/// start and end, the parent span and the request id; they stay in memory
/// and are written out once, at exit. Single-threaded by design: every
/// traced call is made from the benchmark's main thread.
///
/// A span whose layer is empty is a measurement the benchmark makes for a
/// per-layer metric (for example the engine re-run on a group the server
/// answered from its own worker); it is kept and written out but charges
/// no layer in the layer-share table.

namespace perfbench {

struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction (or End()).
  /// With tracing disabled it only times the call, so the caller can read
  /// the duration either way.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer,
          uint64_t request);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span; returns its duration in ns. Idempotent.
    int64_t End();

   private:
    Tracer* tracer_;
    int index_ = -1;
    int64_t start_ns_;
    int64_t end_ns_ = 0;
  };

  /// Adds a finished span with explicit times (derived spans, such as
  /// transport time computed from two runs, are recorded this way).
  void Add(const char* name, const char* layer, int64_t start_ns,
           int64_t end_ns, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the time its child
  /// spans cover, summed by layer. Spans with an empty layer are skipped.
  std::map<std::string, int64_t> SelfTimeByLayer() const;

  /// Durations (ns) of every span with this name.
  std::vector<int64_t> Durations(const char* name) const;

  /// Writes every span as one JSON line. False on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
