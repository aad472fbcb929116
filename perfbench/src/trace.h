// In-memory span recorder and the order statistics the benchmark reports.
//
// A span is one call into a layer: name, start, end, the span that was
// open when it began (its parent), and the request it served. Spans are
// appended to a vector and written out when the run ends; nothing is
// formatted or flushed while a solve is being timed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;             ///< index into the span list, -1 = root
  std::int64_t request = -1;   ///< request id the span served, -1 = none
  double duration() const noexcept { return end - start; }
};

/// Records spans of the calling thread. Layers are entered only from the
/// benchmark's own thread (the OpenMP parallelism is inside each layer),
/// so the open-span stack needs no lock.
class Tracer {
 public:
  int begin(const char* name, std::int64_t request = -1) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_s(), 0.0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// A span whose bounds were measured elsewhere (e.g. reconstructed from
  /// a service result's timings). Returns its index.
  int add(const std::string& name, double start, double end, int parent,
          std::int64_t request) {
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a tracer; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::int64_t request = -1)
      : t_(t), id_(t != nullptr ? t->begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const double a = std::max(s.start, p.start);
      const double b = std::min(s.end, p.end);
      if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += hi - lo;
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += hi - lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

/// Per-name totals: calls, inclusive seconds, self seconds.
struct LayerTotals {
  std::int64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

inline std::map<std::string, LayerTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    ++t.calls;
    t.total_s += spans[i].duration();
    t.self_s += self[i];
  }
  return out;
}

/// Median (mean of the two middle values for an even count); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// Samples needed so that at least `beyond` of them lie beyond the
/// nearest-rank p-th percentile (the benchmark's tail rule).
inline std::size_t samples_for_tail(double p, std::size_t beyond) {
  std::size_t n = beyond + 1;
  while (samples_beyond(n, p) < beyond) ++n;
  return n;
}

}  // namespace perfbench
