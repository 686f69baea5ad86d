#include "core/buffers.hpp"

#include <algorithm>
#include <utility>

namespace redmule::core {

// ---------------------------------------------------------------------------
// XBuffer
// ---------------------------------------------------------------------------

XBuffer::XBuffer(const Geometry& g) : geom_(g) {}

void XBuffer::open_group(uint64_t tile, uint32_t q, unsigned valid_rows) {
  REDMULE_ASSERT(can_accept_group());
  XGroup grp;
  if (!free_pool_.empty()) {  // recycle a retired group's row storage
    grp = std::move(free_pool_.back());
    free_pool_.pop_back();
  }
  grp.tile = tile;
  grp.q = q;
  grp.valid_rows = valid_rows;
  grp.loaded_rows = 0;
  grp.uses = 0;
  grp.rows.resize(geom_.l);
  for (Line& row : grp.rows) {
    row.assign(geom_.j_slots(), fp16::Float16{});  // invalid rows stay zero
  }
  groups_.push_back(std::move(grp));
}

void XBuffer::deliver_row_bits(const uint16_t* bits, unsigned n_valid) {
  REDMULE_ASSERT(!groups_.empty());
  XGroup& grp = groups_.back();
  REDMULE_ASSERT(grp.loaded_rows < grp.valid_rows);
  REDMULE_ASSERT(n_valid <= geom_.j_slots());
  Line& row = grp.rows[grp.loaded_rows];  // pre-sized and zeroed by open_group
  for (unsigned h = 0; h < n_valid; ++h) row[h] = fp16::Float16::from_bits(bits[h]);
  ++grp.loaded_rows;
}

const XGroup* XBuffer::find_ready(uint64_t tile, uint32_t q) const {
  for (const XGroup& grp : groups_)
    if (grp.tile == tile && grp.q == q) return grp.ready() ? &grp : nullptr;
  return nullptr;
}

XGroup* XBuffer::find_ready(uint64_t tile, uint32_t q) {
  return const_cast<XGroup*>(std::as_const(*this).find_ready(tile, q));
}

void XBuffer::pop_front() {
  REDMULE_ASSERT(!groups_.empty());
  free_pool_.push_back(std::move(groups_.front()));  // recycle the storage
  groups_.pop_front();
}

void XBuffer::reset() {
  while (!groups_.empty()) pop_front();
}

// ---------------------------------------------------------------------------
// WBuffer
// ---------------------------------------------------------------------------

WBuffer::WBuffer(const Geometry& g) : geom_(g), cols_(g.h) {
  // Pre-size every ring slot: push/pop never allocate after this.
  for (ColRing& ring : cols_)
    for (WLine& slot : ring.slots) slot.elems.resize(g.j_slots());
}

bool WBuffer::can_push(unsigned col) const {
  REDMULE_ASSERT(col < geom_.h);
  return cols_[col].count < kDepth;
}

WLine& WBuffer::next_slot(unsigned col) {
  REDMULE_ASSERT(can_push(col));
  ColRing& ring = cols_[col];
  WLine& slot = ring.slots[(ring.head + ring.count) % kDepth];
  ++ring.count;
  return slot;
}

void WBuffer::push_bits(unsigned col, uint64_t tile, uint32_t trav,
                        const uint16_t* bits, unsigned n_valid) {
  REDMULE_ASSERT(n_valid <= geom_.j_slots());
  WLine& slot = next_slot(col);
  slot.tile = tile;
  slot.trav = trav;
  unsigned h = 0;
  for (; h < n_valid; ++h) slot.elems[h] = fp16::Float16::from_bits(bits[h]);
  for (; h < geom_.j_slots(); ++h) slot.elems[h] = fp16::Float16{};
}

const WLine* WBuffer::front_if(unsigned col, uint64_t tile, uint32_t trav) const {
  REDMULE_ASSERT(col < geom_.h);
  const ColRing& ring = cols_[col];
  if (ring.count == 0) return nullptr;
  const WLine& f = ring.slots[ring.head];
  return (f.tile == tile && f.trav == trav) ? &f : nullptr;
}

void WBuffer::pop(unsigned col) {
  REDMULE_ASSERT(col < geom_.h && cols_[col].count > 0);
  ColRing& ring = cols_[col];
  ring.head = (ring.head + 1) % kDepth;
  --ring.count;
}

void WBuffer::reset() {
  for (ColRing& ring : cols_) {
    ring.head = 0;
    ring.count = 0;
  }
}

// ---------------------------------------------------------------------------
// ZBuffer
// ---------------------------------------------------------------------------

ZBuffer::ZBuffer(const Geometry& g) : geom_(g) {}

bool ZBuffer::can_open_tile() const {
  return open_tiles_.size() < kTileBuffers && stores_.size() < kTileBuffers * geom_.l;
}

void ZBuffer::open_tile(uint64_t tile) {
  REDMULE_ASSERT(can_open_tile());
  TileBuf buf;
  if (!tile_pool_.empty()) {  // recycle a closed tile's capture storage
    buf = std::move(tile_pool_.back());
    tile_pool_.pop_back();
  }
  buf.tile = tile;
  buf.rows.resize(geom_.l);
  for (Line& row : buf.rows) row.assign(geom_.j_slots(), fp16::Float16{});
  open_tiles_.push_back(std::move(buf));
}

bool ZBuffer::tile_open(uint64_t tile) const {
  for (const TileBuf& b : open_tiles_)
    if (b.tile == tile) return true;
  return false;
}

void ZBuffer::capture(uint64_t tile, uint32_t tau,
                      std::span<const fp16::Float16> values) {
  REDMULE_ASSERT(values.size() <= geom_.l);
  for (TileBuf& b : open_tiles_) {
    if (b.tile != tile) continue;
    REDMULE_ASSERT(tau < geom_.j_slots());
    for (size_t r = 0; r < values.size(); ++r) b.rows[r][tau] = values[r];
    return;
  }
  REDMULE_ASSERT_MSG(false, "capture into a tile that was never opened");
}

void ZBuffer::close_tile(uint64_t tile, uint32_t z_ptr, const Job& job, unsigned mt,
                         unsigned kt) {
  REDMULE_ASSERT(!open_tiles_.empty());
  // Tiles close in order.
  REDMULE_ASSERT(open_tiles_.front().tile == tile);
  TileBuf buf = std::move(open_tiles_.front());
  open_tiles_.pop_front();

  const Tiling tl(job, geom_);
  const uint32_t j0 = kt * geom_.j_slots();
  const unsigned valid_cols = tl.valid_cols(kt);
  const unsigned r0 = mt * geom_.l;
  const unsigned valid_rows = tl.valid_rows(mt);
  for (unsigned r = 0; r < valid_rows; ++r) {
    ZStore st;
    if (!store_pool_.empty()) {  // recycle a drained store's data storage
      st = std::move(store_pool_.back());
      store_pool_.pop_back();
    }
    st.addr = z_ptr + ((r0 + r) * job.k + j0) * 2;
    st.n_halfwords = valid_cols;
    st.data.assign(buf.rows[r].begin(), buf.rows[r].begin() + valid_cols);
    stores_.push_back(std::move(st));
  }
  tile_pool_.push_back(std::move(buf));  // recycle the capture buffer
}

void ZBuffer::reset() {
  while (!open_tiles_.empty()) {
    tile_pool_.push_back(std::move(open_tiles_.front()));
    open_tiles_.pop_front();
  }
  while (!stores_.empty()) pop_store();
}

}  // namespace redmule::core
