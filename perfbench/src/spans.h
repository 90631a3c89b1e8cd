// In-memory span recorder for the traced run (README.md "Traced run").
//
// A span is one call into a layer's public function, timed from the
// benchmark's side of the call: name "<layer>.<call>", start and end on the
// host steady clock, the enclosing open span as its parent, and the id of
// the sweep point it belongs to. Spans stay in memory until the run ends
// and are then written as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
  int point = -1;   ///< sweep point id, -1 outside any point
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Open a span as a child of the innermost open span; returns its id.
  int begin(std::string name, int point);
  /// Close span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Spans recorded from outside the program's clock (tests build trees
  /// with chosen times through this).
  void add(Span span) { spans_.push_back(std::move(span)); }

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, std::string name, int point)
      : rec_(rec), id_(rec.begin(std::move(name), point)) {}
  ~Scope() { rec_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Self time of every span, in seconds: its duration minus the part of its
/// interval that the union of its direct children covers.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Per span name: summed duration, summed self time and span count.
struct NameTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::int64_t count = 0;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events on one track, microsecond
/// timestamps); `metadata` members are emitted as top-level strings.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::map<std::string, std::string>& metadata);

}  // namespace perfbench
