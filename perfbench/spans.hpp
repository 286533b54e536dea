// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a layer's public function
// in a Span: name, start, end and the enclosing span on the same thread
// (the parent). Spans go to a per-thread buffer, so recording takes no
// lock; the buffers are read only after the recording threads joined.
// Recording is off unless the recorder is started, and an off Span
// costs one relaxed load. At the end of a traced run every span is
// folded into per-name durations and per-layer self time (a span's
// duration minus its children's), and the first spans are written out
// as a Chrome trace (capped, so a trace file stays a few hundred MB at
// most).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Record {
    const char* name = nullptr;  ///< a string literal: "<layer>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;     ///< 0 while open
    std::int32_t parent = -1;    ///< index in the same buffer, -1 = root
  };
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Record> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };

  static SpanRecorder& global() {
    static SpanRecorder recorder;
    return recorder;
  }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Drops earlier spans and starts recording. Call while no other
  /// thread records.
  void start() {
    std::lock_guard lock(mutex_);
    for (auto& b : buffers_) {
      b->spans.clear();
      b->open.clear();
    }
    origin_ns_ = now_ns();
    enabled_.store(true, std::memory_order_relaxed);
  }
  void stop() { enabled_.store(false, std::memory_order_relaxed); }

  /// This thread's buffer, registered on first use.
  Buffer& local() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->tid = static_cast<std::uint32_t>(buffers_.size());
      mine->spans.reserve(1 << 16);
    }
    return *mine;
  }

  /// Closed spans by name: durations in ns. Recording threads must
  /// have stopped.
  [[nodiscard]] std::map<std::string, std::vector<double>> durations() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& b : buffers_) {
      for (const Record& r : b->spans) {
        if (r.end_ns != 0) {
          out[r.name].push_back(static_cast<double>(r.end_ns - r.start_ns));
        }
      }
    }
    return out;
  }

  /// Self time in ns per layer (the name up to its first '.'): each
  /// closed span's duration minus the durations of its closed children.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const {
    std::map<std::string, double> out;
    for (const auto& b : buffers_) {
      std::vector<double> child(b->spans.size(), 0.0);
      for (const Record& r : b->spans) {
        if (r.end_ns != 0 && r.parent >= 0) {
          child[static_cast<std::size_t>(r.parent)] +=
              static_cast<double>(r.end_ns - r.start_ns);
        }
      }
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const Record& r = b->spans[i];
        if (r.end_ns == 0) continue;
        const std::string name(r.name);
        out[name.substr(0, name.find('.'))] +=
            static_cast<double>(r.end_ns - r.start_ns) - child[i];
      }
    }
    return out;
  }

  /// Writes up to `max_spans` closed spans as a Chrome trace, each
  /// thread's first ones in an equal share: "X" events whose args carry
  /// the span id and its parent's; otherData records how many spans
  /// were recorded and written. Returns false on an I/O error.
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    const std::size_t share = max_spans / std::max<std::size_t>(buffers_.size(), 1);
    std::size_t recorded = 0;
    std::size_t written = 0;
    for (const auto& b : buffers_) {
      std::size_t mine = 0;
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const Record& r = b->spans[i];
        if (r.end_ns == 0) continue;
        ++recorded;
        if (mine++ >= share) continue;
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":\"%u:%zu\",\"parent\":\"",
                     written == 0 ? "" : ",", r.name, b->tid,
                     static_cast<double>(r.start_ns - origin_ns_) / 1e3,
                     static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                     b->tid, i);
        if (r.parent >= 0) std::fprintf(f, "%u:%d", b->tid, r.parent);
        std::fputs("\"}}", f);
        ++written;
      }
    }
    std::fprintf(f,
                 "\n],\"otherData\":{\"spans_recorded\":%zu,"
                 "\"spans_written\":%zu}}\n",
                 recorded, written);
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::int64_t origin_ns_ = 0;
  std::mutex mutex_;  ///< guards buffers_ registration
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one call into a layer. `name` must be a literal.
class Span {
 public:
  explicit Span(const char* name) {
    SpanRecorder& rec = SpanRecorder::global();
    if (!rec.enabled()) return;
    buf_ = &rec.local();
    index_ = static_cast<std::int32_t>(buf_->spans.size());
    buf_->spans.push_back({name, now_ns(), 0,
                           buf_->open.empty() ? -1 : buf_->open.back()});
    buf_->open.push_back(index_);
  }
  ~Span() {
    if (buf_ == nullptr) return;
    buf_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    buf_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder::Buffer* buf_ = nullptr;
  std::int32_t index_ = 0;
};

}  // namespace perfbench
