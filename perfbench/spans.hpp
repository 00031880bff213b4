// Span recorder of the benchmark's traced run.
//
// A span is one call the benchmark makes into a simulator layer (or one
// TaskEngine task, converted from the engine's per-task profile). Spans are
// kept in memory and written out once, when the run ends, so recording costs
// a clock read and a vector append. With recording off every call is a
// branch, which is what the untraced passes pay.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ibbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::int64_t id{0};
  std::int64_t parent{-1};  // -1: a pass root
  int pass{-1};
  int cell{-1};             // workload cell / request index, -1: none
  std::string layer;        // src/ module name, or "bench" for its own work
  std::string name;
  std::int64_t start_ns{0};  // steady clock, relative to the run origin
  std::int64_t end_ns{0};
  int worker{-1};            // TaskEngine worker index, -1: main thread
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_pass(int pass) { pass_ = pass; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  /// Opens a main-thread span; returns its id, or -1 when disabled.
  std::int64_t open(const char* layer, const char* name, std::int64_t parent,
                    int cell = -1) {
    if (!enabled_) return -1;
    Span s;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = parent;
    s.pass = pass_;
    s.cell = cell;
    s.layer = layer;
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  /// Adds an already finished span (converted task records).
  std::int64_t add(Span s) {
    s.id = static_cast<std::int64_t>(spans_.size());
    s.pass = pass_;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  bool enabled_{false};
  int pass_{-1};
  std::vector<Span> spans_;
};

/// RAII span on the main thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* layer, const char* name,
             std::int64_t parent, int cell = -1)
      : rec_(rec), id_(rec.open(layer, name, parent, cell)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

/// Length of the union of [begin, end) intervals.
inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_b = 0;
  std::int64_t cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (e <= b) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may run in parallel on engine workers, so the
/// covered part is the union of their intervals, clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    kids[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              union_length(std::move(kids[i]));
  }
  return self;
}

/// Per-pass, per-layer self time in ms: result[pass][layer].
inline std::map<int, std::map<std::string, double>> layer_self_ms(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<int, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].pass][spans[i].layer] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

}  // namespace ibbench
