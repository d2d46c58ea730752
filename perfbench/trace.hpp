#pragma once
// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each library layer; each has a name, a
// start and end (steady clock, ns since the recorder was created), a parent
// (the enclosing span on the same thread) and a request id shared by every
// span of one operation. Nothing is written until the run ends.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened by the constructor, closed by the destructor. A
  /// null tracer makes the scope a no-op, which is how untraced
  /// operations run. `request` < 0 inherits the enclosing span's id.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::int64_t request = -1)
        : tracer_(t) {
      if (tracer_ == nullptr) return;
      rec_.name = name;
      rec_.parent = current_;
      rec_.request = request >= 0 ? request : current_request_;
      rec_.start_ns = tracer_->now_ns();
      {
        std::lock_guard lock(tracer_->mutex_);
        rec_.id = tracer_->next_id_++;
      }
      saved_parent_ = current_;
      saved_request_ = current_request_;
      current_ = rec_.id;
      current_request_ = rec_.request;
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      rec_.end_ns = tracer_->now_ns();
      current_ = saved_parent_;
      current_request_ = saved_request_;
      std::lock_guard lock(tracer_->mutex_);
      tracer_->spans_.push_back(rec_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    SpanRecord rec_;
    std::int64_t saved_parent_ = -1;
    std::int64_t saved_request_ = -1;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }

  /// Durations (in `scale` units per ns, e.g. 1e-6 for ms) of every span
  /// with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              double scale) const {
    std::vector<double> out;
    std::lock_guard lock(mutex_);
    for (const auto& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
      }
    }
    return out;
  }

  /// Sum of durations and of self times of the spans with this name, ns.
  struct Totals {
    std::int64_t wall = 0;
    std::int64_t self = 0;
    std::int64_t count = 0;
  };
  [[nodiscard]] Totals totals(const std::string& name) const {
    const std::vector<SpanRecord> all = spans();
    std::vector<Interval> iv;
    iv.reserve(all.size());
    for (const auto& s : all) iv.push_back({s.id, s.parent, s.start_ns, s.end_ns});
    const std::vector<std::int64_t> self = self_times(iv);
    Totals t;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (name != all[i].name) continue;
      t.wall += all[i].end_ns - all[i].start_ns;
      t.self += self[i];
      ++t.count;
    }
    return t;
  }

  /// One JSON object per line: name, id, parent, request, start_ns, end_ns.
  bool write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (const auto& s : spans()) {
      os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"request\":" << s.request
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  using Clock = std::chrono::steady_clock;
  static inline thread_local std::int64_t current_ = -1;
  static inline thread_local std::int64_t current_request_ = -1;

  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards next_id_ and spans_
  std::int64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
