/// \file buffers.hpp
/// \brief RedMulE's three operand buffers (paper Fig. 1, §II-B).
///
///  - X-Buffer: holds, per row of the array, one line of j_slots consecutive
///    X elements; double-buffered as "groups" of L lines so that refills
///    overlap computation.
///  - W-Buffer: H shift registers, each broadcasting one W element per cycle
///    to all L FMAs of its column; modeled as a depth-2 line FIFO per column.
///  - Z-Buffer: collects finished Z elements (one per row per cycle during a
///    tile's last traversal) and turns them into row-store requests for the
///    streamer.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/datapath.hpp"
#include "fp16/float16.hpp"

namespace redmule::core {

/// One j_slots-wide line of FP16 elements (zero-padded at edges).
using Line = std::vector<fp16::Float16>;

/// A group of L X-lines covering n in [q*j_slots, (q+1)*j_slots) for one
/// tile; the unit of X-buffer replacement.
struct XGroup {
  uint64_t tile = 0;
  uint32_t q = 0;           ///< group index along N within the tile
  std::vector<Line> rows;   ///< size L (invalid rows all-zero)
  unsigned loaded_rows = 0; ///< rows delivered by the streamer so far
  unsigned valid_rows = 0;  ///< rows that require a memory load
  unsigned uses = 0;        ///< operand-register loads consumed so far

  bool ready() const { return loaded_rows >= valid_rows; }
};

class XBuffer {
 public:
  XBuffer(const Geometry& g);

  /// Streamer side: space for starting a new group?
  bool can_accept_group() const { return groups_.size() < kCapacity; }
  /// Opens a new group (rows arrive one by one via deliver_row). Retired
  /// groups are recycled, so steady-state operation never allocates.
  void open_group(uint64_t tile, uint32_t q, unsigned valid_rows);
  /// Delivers a loaded row line into the most recently opened group.
  void deliver_row(Line line);
  /// Allocation-free delivery: fills the next row in place from raw
  /// halfword encodings (\p n_valid elements; the tail stays zero-padded).
  void deliver_row_bits(const uint16_t* bits, unsigned n_valid);

  /// Engine side: is the group tagged (tile, q) present and fully loaded?
  const XGroup* find_ready(uint64_t tile, uint32_t q) const;
  XGroup* find_ready(uint64_t tile, uint32_t q);
  /// Retires the front group (all operand loads consumed).
  void pop_front();
  bool empty() const { return groups_.empty(); }
  size_t occupancy() const { return groups_.size(); }

  void reset();

  static constexpr size_t kCapacity = 2;

 private:
  Geometry geom_;
  std::deque<XGroup> groups_;
  std::vector<XGroup> free_pool_;  ///< retired groups, storage recycled
};

/// One buffered W line: w[n, j0 .. j0+j_slots) for a given traversal/column.
struct WLine {
  uint64_t tile = 0;
  uint32_t trav = 0;
  Line elems;
};

class WBuffer {
 public:
  WBuffer(const Geometry& g);

  bool can_push(unsigned col) const;
  void push(unsigned col, WLine line);
  /// Allocation-free push: fills the next slot of \p col in place from raw
  /// halfword encodings (\p n_valid elements; the tail stays zero-padded).
  void push_bits(unsigned col, uint64_t tile, uint32_t trav, const uint16_t* bits,
                 unsigned n_valid);

  /// Engine side: front line of column \p col if it matches (tile, trav).
  const WLine* front_if(unsigned col, uint64_t tile, uint32_t trav) const;
  void pop(unsigned col);

  void reset();

  static constexpr size_t kDepth = 2;

 private:
  /// Fixed ring of kDepth pre-sized lines per column: the physical W shift
  /// registers; push/pop never allocate.
  struct ColRing {
    WLine slots[kDepth];
    unsigned head = 0;
    unsigned count = 0;
  };
  WLine& next_slot(unsigned col);

  Geometry geom_;
  std::vector<ColRing> cols_;
};

/// A pending Z row store produced by the Z-buffer.
struct ZStore {
  uint32_t addr = 0;
  unsigned n_halfwords = 0;
  Line data;
};

class ZBuffer {
 public:
  ZBuffer(const Geometry& g);

  /// Engine side: can a new tile start capturing? Requires a free tile
  /// buffer and bounded pending stores (the physical Z-buffer backpressure).
  bool can_open_tile() const;
  void open_tile(uint64_t tile);
  bool tile_open(uint64_t tile) const;
  /// Captures the column of Z values for j-slot \p tau: \p values holds
  /// rows 0 .. values.size()-1 (at most L); rows past it are not written.
  void capture(uint64_t tile, uint32_t tau, std::span<const fp16::Float16> values);
  /// Seals the tile and emits row stores for the valid region
  /// (Tiling::valid_rows(mt) x Tiling::valid_cols(kt)).
  void close_tile(uint64_t tile, uint32_t z_ptr, const Job& job, unsigned mt,
                  unsigned kt);

  /// Streamer side.
  bool has_store() const { return !stores_.empty(); }
  const ZStore& front_store() const { return stores_.front(); }
  void pop_store() {
    store_pool_.push_back(std::move(stores_.front()));  // recycle the storage
    stores_.pop_front();
  }
  size_t pending_stores() const { return stores_.size(); }

  bool drained() const { return stores_.empty() && open_tiles_.empty(); }
  void reset();

  /// Tile capture buffers live until their stores are emitted; 2 allows the
  /// next tile's capture to begin while the previous one drains.
  static constexpr size_t kTileBuffers = 2;

 private:
  struct TileBuf {
    uint64_t tile = 0;
    std::vector<Line> rows;  ///< rows[r][tau]
  };

  Geometry geom_;
  std::deque<TileBuf> open_tiles_;
  std::deque<ZStore> stores_;
  std::vector<TileBuf> tile_pool_;   ///< retired capture buffers, recycled
  std::vector<ZStore> store_pool_;   ///< retired store records, recycled
};

}  // namespace redmule::core
