// In-memory span recording for the traced run.  Spans are taken from the
// benchmark's own code around each call it makes into a layer; each
// thread appends to its own track, and the tracks are merged and written
// as Chrome trace-event JSON once every thread has stopped.  Untraced
// runs carry no Tracer at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double startUs = 0;  ///< steady clock, microseconds since tracer creation
  double endUs = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
};

/// Spans written by exactly one thread.
struct SpanTrack {
  std::string name;
  std::vector<Span> spans;
};

class Tracer {
 public:
  Tracer();

  /// Create a track for one thread; call before that thread starts.
  SpanTrack& track(std::string name);

  double nowUs() const;
  uint64_t nextId() { return nextId_.fetch_add(1, std::memory_order_relaxed); }

  /// Append a finished span to `t`.  `id` 0 allocates a fresh one (pass
  /// a pre-allocated id when children had to name this span as parent
  /// before it ended).  Returns the span's id.
  uint64_t record(SpanTrack& t, const char* name, double startUs,
                  double endUs, uint64_t parent = 0, uint64_t id = 0);

  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations(const char* name) const;

  /// Write every track as Chrome trace-event JSON ("X" events, one tid
  /// per track, span and parent ids in args).  Returns false on I/O
  /// failure.  Only call once the recording threads have stopped.
  bool writeChromeJson(const std::string& path) const;

  size_t spanCount() const;

 private:
  std::chrono::steady_clock::time_point base_;
  std::atomic<uint64_t> nextId_{1};
  std::deque<SpanTrack> tracks_;  ///< deque: track references stay valid
};

/// RAII span over the enclosing scope; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanTrack* track, const char* name,
             uint64_t parent = 0)
      : tracer_(tracer),
        track_(track),
        name_(name),
        parent_(parent),
        id_(tracer != nullptr ? tracer->nextId() : 0),
        start_(tracer != nullptr ? tracer->nowUs() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(*track_, name_, start_, tracer_->nowUs(), parent_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanTrack* track_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  double start_;
};

}  // namespace perfbench
