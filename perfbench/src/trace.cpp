#include <algorithm>
#include <utility>

#include "perfbench.hpp"

namespace perfbench {

int32_t Tracer::open(const char* name, const char* layer, uint64_t job) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.job = job;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Tracer::close(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

void Tracer::write(std::ostream& os) const {
  for (const Span& s : spans_)
    os << s.job << ' ' << s.parent << ' ' << s.layer << ' ' << s.name << ' '
       << s.start_ns << ' ' << s.end_ns << '\n';
}

std::vector<int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      const int64_t a = std::max(s.start_ns, p.start_ns);
      const int64_t b = std::min(s.end_ns, p.end_ns);
      if (a < b) kids[static_cast<size_t>(s.parent)].emplace_back(a, b);
    }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t total = 0;  // length of the union of the children's intervals
    int64_t cur_a = 0;
    int64_t cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (!have) {
        cur_a = a;
        cur_b = b;
        have = true;
      } else if (a <= cur_b) {
        cur_b = std::max(cur_b, b);
      } else {
        total += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      }
    }
    if (have) total += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - total;
  }
  return self;
}

Attribution attribute(const LayerTimes& t, double tolerance) {
  Attribution a;
  double replay_ns = 0;
  for (const auto& [layer, ns] : t.replay_self_ns) replay_ns += ns;
  const auto it = t.replay_self_ns.find("serve");
  const double codec_ns = it == t.replay_self_ns.end() ? 0.0 : it->second;
  a.api_rest_ns = t.in_process_ns - (replay_ns - codec_ns);
  a.serve_rest_ns = t.round_trip_ns - t.in_process_ns - codec_ns;
  if (t.round_trip_ns <= 0) return a;
  for (const auto& [layer, ns] : t.replay_self_ns) a.share[layer] = ns / t.round_trip_ns;
  a.share["api"] += a.api_rest_ns / t.round_trip_ns;
  a.share["serve"] += a.serve_rest_ns / t.round_trip_ns;
  const double floor_ns = -tolerance * t.round_trip_ns;
  a.closes = a.api_rest_ns >= floor_ns && a.serve_rest_ns >= floor_ns;
  return a;
}

}  // namespace perfbench
