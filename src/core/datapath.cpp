#include "core/datapath.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

Datapath::Datapath(const Geometry& g) : geom_(g), lat_(g.fma_latency()) {
  g.validate();
  // Sized once; advance() never allocates.
  vals_.resize(static_cast<size_t>(g.h) * lat_ * g.l);
  tags_.resize(static_cast<size_t>(g.h) * lat_);
  valid_.resize(static_cast<size_t>(g.h) * lat_);
  zeros_.resize(g.l);
  last_.values.resize(g.l);
}

void Datapath::reset() {
  head_ = 0;
  std::fill(vals_.begin(), vals_.end(), Float16{});
  std::fill(tags_.begin(), tags_.end(), PipeTag{});
  std::fill(valid_.begin(), valid_.end(), uint8_t{0});
  fma_ops_ = 0;
}

bool Datapath::drained() const {
  return std::none_of(valid_.begin(), valid_.end(), [](uint8_t v) { return v != 0; });
}

const Datapath::Capture* Datapath::advance(const std::vector<ColumnIssue>& issues) {
  const unsigned h = geom_.h;
  const unsigned l = geom_.l;
  REDMULE_ASSERT(issues.size() == h);

  // The last column's registered output feeds column 0 back and may be a
  // capture; copy it before that column's issue overwrites its ring entry.
  const size_t last = static_cast<size_t>(h - 1) * lat_ + head_;
  const bool last_valid = valid_[last] != 0;
  if (last_valid) {
    last_.tag = tags_[last];
    std::copy_n(&vals_[last * l], l, last_.values.begin());
  }

  // Columns from high to low: column c reads column c-1's output entry
  // before column c-1 overwrites it with its own issue.
  for (unsigned c = h; c-- > 0;) {
    const size_t e = static_cast<size_t>(c) * lat_ + head_;
    const ColumnIssue& issue = issues[c];
    valid_[e] = issue.active;
    if (!issue.active) continue;
    REDMULE_ASSERT(issue.x != nullptr);

    // Accumulation input: previous column's output, the feedback path for
    // column 0, or the initial accumulator on the first traversal of a tile.
    const Float16* acc;
    if (c > 0) {
      const size_t up = e - lat_;
      REDMULE_ASSERT_MSG(valid_[up] != 0, "upstream column bubble at issue time");
      REDMULE_ASSERT_MSG(tags_[up] == issue.tag, "systolic schedule misaligned");
      acc = &vals_[up * l];
    } else if (!issue.first_traversal) {
      REDMULE_ASSERT_MSG(last_valid, "feedback bubble at issue time");
      REDMULE_ASSERT_MSG(last_.tag.tile == issue.tag.tile &&
                             last_.tag.trav + 1 == issue.tag.trav &&
                             last_.tag.tau == issue.tag.tau,
                         "feedback schedule misaligned");
      acc = last_.values.data();
    } else {
      acc = issue.init_acc != nullptr ? issue.init_acc : zeros_.data();
    }
    tags_[e] = issue.tag;
    // Dead lanes are clocked (and counted) by the hardware but never stored,
    // so only the live rows are computed.
    const unsigned live = std::min(issue.live_rows, l);
    if (live != 0) fp16::fma_row(issue.x, issue.w, acc, &vals_[e * l], live);
    fma_ops_ += l;
  }
  head_ = head_ + 1 == lat_ ? 0 : head_ + 1;

  // A last-traversal entry emerging from the final column is a finished
  // chunk of Z destined for the Z-buffer.
  return last_valid && last_.tag.last_traversal ? &last_ : nullptr;
}

}  // namespace redmule::core
