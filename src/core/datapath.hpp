/// \file datapath.hpp
/// \brief RedMulE's semi-systolic FMA array (paper Fig. 2b/2d).
///
/// L rows by H columns of FP16 FMA units. Within a row, column c passes its
/// result to column c+1 through P+1 pipeline stages; the last column feeds
/// back into the first one (accumulation input), so a row keeps
/// H*(P+1) partial dot products ("j-slots") in flight at all times.
///
/// The model simulates every pipeline register with real FP16 arithmetic and
/// carries (tile, traversal, j-slot) tags alongside the data. The tags are
/// redundant with the schedule -- the hardware has none -- but let the model
/// assert, every cycle, that operands meet exactly when the schedule says
/// they must. A scheduling bug therefore aborts instead of silently
/// computing garbage.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "fp16/float16.hpp"

namespace redmule::core {

/// Identity of one in-flight partial result.
struct PipeTag {
  uint64_t tile = 0;    ///< global tile sequence number
  uint32_t trav = 0;    ///< feedback traversal index t (n-chunk)
  uint32_t tau = 0;     ///< j-slot index within the tile (0 .. j_slots-1)
  bool last_traversal = false;  ///< completes a Z element when true

  bool operator==(const PipeTag&) const = default;
};

class Datapath {
 public:
  explicit Datapath(const Geometry& g);

  /// Issue descriptor for one column in the current cycle. The operand
  /// pointers are borrowed for the duration of the advance() call only.
  struct ColumnIssue {
    bool active = false;
    PipeTag tag;
    bool first_traversal = false;          ///< accumulate from init, not feedback
    fp16::Float16 w;                       ///< broadcast W element
    const fp16::Float16* x = nullptr;      ///< per-row X operands (L elements)
    /// First-traversal accumulator initialization: the streamed Y elements
    /// (L of them) for the Z = Y + X*W extension; null means zeros (Z = X*W).
    const fp16::Float16* init_acc = nullptr;
    /// Rows whose result can reach memory: L, fewer on the last row tile of
    /// Z, 0 for a j-slot past the tile's last column of Z. Only rows below
    /// it are computed; the schedule, tags and asserts run for every lane.
    /// Must be the same for every issue of one (tile, tau) -- lanes never
    /// mix, so a dead lane can never feed a live one. Default: all rows.
    unsigned live_rows = ~0u;
  };

  /// Finished Z-row chunk emerging from the last column.
  struct Capture {
    PipeTag tag;
    /// One Z element per row (size L). Rows at or past the issues'
    /// live_rows hold unspecified values: dead lanes are not computed.
    std::vector<fp16::Float16> values;
  };

  /// Advances the array by one (unstalled) cycle. \p issues has exactly H
  /// entries. Returns the capture output if a last-traversal entry emerged,
  /// else null; the pointee stays valid until the next advance() or reset().
  const Capture* advance(const std::vector<ColumnIssue>& issues);

  /// Clears all pipeline state (soft clear).
  void reset();

  const Geometry& geometry() const { return geom_; }
  /// FMA operations the hardware performs: L per active column issue,
  /// padded and dead lanes included, for the power model's activity factor.
  uint64_t fma_ops() const { return fma_ops_; }
  /// True if no valid data is in flight.
  bool drained() const;

 private:
  Geometry geom_;
  unsigned lat_;  ///< pipeline depth of a column (P+1)
  /// Every column shifts in lockstep, so one ring position serves all of
  /// them: the entry at head_ is each column's registered output this cycle
  /// (issued lat_ cycles ago) and is overwritten by this cycle's issue.
  unsigned head_ = 0;
  std::vector<fp16::Float16> vals_;  ///< [c][stage][row] partial sums
  std::vector<PipeTag> tags_;        ///< [c][stage]
  std::vector<uint8_t> valid_;       ///< [c][stage]
  std::vector<fp16::Float16> zeros_; ///< L zeros: the Z = X*W initial acc
  /// The last column's output this cycle, copied out before that column's
  /// issue overwrites it: the column-0 feedback input and the capture.
  Capture last_;
  uint64_t fma_ops_ = 0;
};

}  // namespace redmule::core
