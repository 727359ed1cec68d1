// In-memory span tracing for the traced benchmark run.
//
// Spans are opened and closed by the benchmark around each call it makes
// into a layer of the controller; nothing inside the program is traced.
// A span records its name, its layer, start and end (steady clock, ns), the
// span that was open when it began (its parent) and the request it served.
// The spans stay in memory while the run measures and are written once, at
// exit, as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

struct Span {
  const char* name = "";   ///< string literal, e.g. "db.api.alloc_rec"
  const char* layer = "";  ///< string literal, e.g. "db.api"
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;

  [[nodiscard]] std::uint64_t duration() const noexcept { return end - start; }
};

/// Spans in opening order. A deque, so growing it never copies the spans
/// already recorded (a vector's reallocation would stall the traced run).
using Spans = std::deque<Span>;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Request id stamped on spans opened from now on (spans of one request
  /// share it).
  void set_request(std::uint64_t request) noexcept { request_ = request; }

  std::uint32_t open(const char* name, const char* layer) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, layer, 0, 0,
                          open_.empty() ? kNoParent : open_.back(), request_});
    open_.push_back(index);
    spans_.back().start = now_ns();
    return index;
  }
  void close(std::uint32_t index) {
    spans_[index].end = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] const Spans& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::uint64_t request_ = 0;
  Spans spans_;
  std::vector<std::uint32_t> open_;
};

/// Opens a span for its scope when tracing is on; otherwise does nothing
/// beyond one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* layer)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      index_ = tracer_->open(name, layer);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
[[nodiscard]] std::vector<std::uint64_t> self_times(const Spans& spans);

/// Summed self time per layer.
[[nodiscard]] std::map<std::string, std::uint64_t> layer_self_times(
    const Spans& spans);

/// Inclusive durations (ns) of every span with this name.
[[nodiscard]] std::vector<double> durations_of(const Spans& spans,
                                               const char* name);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, µs);
/// at most `max_events` spans are written. False on an I/O error.
bool write_chrome_trace(const std::string& path, const Spans& spans,
                        std::size_t max_events);

}  // namespace perfbench
