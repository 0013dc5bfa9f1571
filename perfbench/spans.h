// Host-time spans recorded by the benchmark around its calls into each
// simulator layer.
//
// A span carries its name, start and end (host ns since the recorder was
// built), the span that encloses it and the trial it belongs to. Spans are
// kept in memory and written out once, when the run ends, as a Chrome
// trace-event file (chrome://tracing or Perfetto loads it).
//
// Scope is the one timing primitive of the benchmark: untimed passes hand it
// a null recorder and it only measures its own duration, so timed and traced
// passes run the same code.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // Index of the enclosing span; -1 at top level.
    int trial = -1;   // -1 outside any trial.
  };

  SpanRecorder() : origin_ns_(HostNowNs()) {}

  int Begin(const char* name, int trial) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, HostNowNs() - origin_ns_, 0, parent, trial});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    spans_[id].end_ns = HostNowNs() - origin_ns_;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of the durations of spans named `name` among spans[first, last).
  std::int64_t TotalNs(const char* name, std::size_t first, std::size_t last) const {
    std::int64_t total = 0;
    for (std::size_t i = first; i < last; ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        total += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return total;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"trial\": %d}}%s\n",
                   s.name, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   s.trial, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times one call into a layer; records it as a span when a recorder is set.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, int trial)
      : recorder_(recorder), start_ns_(HostNowNs()) {
    if (recorder_ != nullptr) {
      id_ = recorder_->Begin(name, trial);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { Stop(); }

  // Ends the span (once) and returns its duration in host ns.
  std::int64_t Stop() {
    if (elapsed_ns_ < 0) {
      elapsed_ns_ = HostNowNs() - start_ns_;
      if (recorder_ != nullptr) {
        recorder_->End(id_);
      }
    }
    return elapsed_ns_;
  }

 private:
  SpanRecorder* recorder_;
  std::int64_t start_ns_;
  std::int64_t elapsed_ns_ = -1;
  int id_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
