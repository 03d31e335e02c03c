#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

/// In-memory span recorder for the traced replay.
///
/// A span is one call into one layer: its name, start, end, the span that
/// enclosed it and the id of the draw (race iteration or sweep cell) it
/// served.  Spans are recorded from the benchmark's own code around each
/// library call, kept in memory up to a cap and written out once, at exit.
/// Self time per name and per group (the cluster count the current draw
/// belongs to) covers every span, including those past the cap.  A layer's self time is its span's
/// duration minus the part its child spans cover.
namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  using NameId = std::uint32_t;

  explicit Tracer(std::size_t keep) : keep_(keep), epoch_(Clock::now()) {
    kept_.reserve(keep);
  }

  /// The id of a span name, registered on first use.  Hot loops look
  /// their names up once and open spans by id.
  NameId name(std::string_view n) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == n) return static_cast<NameId>(i);
    names_.emplace_back(n);
    self_s_.push_back(0.0);
    return static_cast<NameId>(names_.size() - 1);
  }

  void open(NameId name, std::uint64_t draw) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().id;
    stack_.push_back({name, next_id_++, parent, draw, now(), 0.0});
  }

  /// Rename the innermost open span (a cache lookup learns only after the
  /// call whether it derived or hit).
  void rename(NameId name) { stack_.back().name = name; }

  /// Close the innermost open span.
  void close() {
    const double end = now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = end - f.start;
    const double self = dur - f.child_s;
    self_s_[f.name] += self;
    group_self_s_[group_] += self;
    if (!stack_.empty()) stack_.back().child_s += dur;
    if (kept_.size() < keep_)
      kept_.push_back({f.name, f.id, f.parent, f.draw, f.start, end});
    else
      ++dropped_;
  }

  /// Attribute the self time of spans closed from now on to `group`.
  void set_group(std::size_t group) { group_ = group; }

  /// Self time of the spans named `n` (0 when there were none).
  [[nodiscard]] double self_s(std::string_view n) const {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == n) return self_s_[i];
    return 0.0;
  }
  /// Sum of self time over every span closed so far.
  [[nodiscard]] double self_total() const {
    double s = 0.0;
    for (const double v : self_s_) s += v;
    return s;
  }
  [[nodiscard]] const std::map<std::size_t, double>& group_self() const {
    return group_self_s_;
  }
  [[nodiscard]] std::uint64_t spans() const { return next_id_; }

  /// One line per kept span, in closing order: id,name,parent,draw,
  /// start_s,end_s (seconds since the tracer was built; parent -1 = top
  /// level).
  void write_csv(std::ostream& os) const {
    os.precision(12);
    os << "id,name,parent,draw,start_s,end_s\n";
    for (const Span& s : kept_)
      os << s.id << ',' << names_[s.name] << ',' << s.parent << ',' << s.draw
         << ',' << s.start << ',' << s.end << '\n';
    if (dropped_ != 0) os << "# " << dropped_ << " spans past the cap\n";
  }

 private:
  struct Frame {
    NameId name;
    std::int64_t id;
    std::int64_t parent;
    std::uint64_t draw;
    double start;
    double child_s;
  };
  struct Span {
    NameId name;
    std::int64_t id;
    std::int64_t parent;
    std::uint64_t draw;
    double start;
    double end;
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  std::size_t keep_;
  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<double> self_s_;
  std::vector<Frame> stack_;
  std::vector<Span> kept_;
  std::int64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t group_ = 0;
  std::map<std::size_t, double> group_self_s_;
};

/// RAII span: opens on construction, closes at scope exit.
class Scope {
 public:
  Scope(Tracer& tr, Tracer::NameId name, std::uint64_t draw) : tr_(tr) {
    tr_.open(name, draw);
  }
  ~Scope() { tr_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tr_;
};

}  // namespace perfbench
