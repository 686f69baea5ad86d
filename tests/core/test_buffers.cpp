/// Unit tests of RedMulE's operand buffers (X/W/Z) in isolation.
#include "core/buffers.hpp"

#include <gtest/gtest.h>

namespace redmule::core {
namespace {

using fp16::f16;
using fp16::Float16;

/// A full j_slots-wide row of raw halfword encodings, all equal to \p v.
std::vector<uint16_t> bits_of(double v, unsigned js = 16) {
  return std::vector<uint16_t>(js, f16(v).bits());
}

TEST(XBufferUnit, GroupLifecycle) {
  Geometry g;
  XBuffer xb(g);
  EXPECT_TRUE(xb.can_accept_group());
  xb.open_group(/*tile=*/0, /*q=*/0, /*valid_rows=*/2);
  EXPECT_EQ(xb.find_ready(0, 0), nullptr);  // not loaded yet
  xb.deliver_row_bits(bits_of(1.0).data(), 16);
  EXPECT_EQ(xb.find_ready(0, 0), nullptr);  // 1 of 2 rows
  xb.deliver_row_bits(bits_of(2.0).data(), 16);
  const XGroup* grp = xb.find_ready(0, 0);
  ASSERT_NE(grp, nullptr);
  EXPECT_EQ(grp->rows[0][0].to_double(), 1.0);
  EXPECT_EQ(grp->rows[1][3].to_double(), 2.0);
  // Invalid rows (beyond valid_rows) read as zero padding.
  EXPECT_EQ(grp->rows[2][0].bits(), 0x0000);
  xb.pop_front();
  EXPECT_TRUE(xb.empty());
}

TEST(XBufferUnit, DoubleBufferingCapacity) {
  Geometry g;
  XBuffer xb(g);
  xb.open_group(0, 0, 1);
  EXPECT_TRUE(xb.can_accept_group());
  xb.open_group(0, 1, 1);
  EXPECT_FALSE(xb.can_accept_group());  // capacity 2 (double buffer)
  xb.pop_front();
  EXPECT_TRUE(xb.can_accept_group());
}

TEST(XBufferUnit, LookupByTileAndGroup) {
  Geometry g;
  XBuffer xb(g);
  xb.open_group(3, 1, 1);
  xb.deliver_row_bits(bits_of(5.0).data(), 16);
  EXPECT_EQ(xb.find_ready(3, 0), nullptr);  // wrong q
  EXPECT_EQ(xb.find_ready(2, 1), nullptr);  // wrong tile
  EXPECT_NE(xb.find_ready(3, 1), nullptr);
}

TEST(WBufferUnit, PerColumnFifoWithTags) {
  Geometry g;
  WBuffer wb(g);
  ASSERT_TRUE(wb.can_push(0));
  wb.push_bits(0, /*tile=*/0, /*trav=*/0, bits_of(1.0).data(), 16);
  wb.push_bits(0, /*tile=*/0, /*trav=*/1, bits_of(2.0).data(), 16);
  EXPECT_FALSE(wb.can_push(0));  // depth 2
  EXPECT_TRUE(wb.can_push(1));   // independent columns
  EXPECT_NE(wb.front_if(0, 0, 0), nullptr);
  EXPECT_EQ(wb.front_if(0, 0, 1), nullptr);  // front is trav 0, not 1
  wb.pop(0);
  ASSERT_NE(wb.front_if(0, 0, 1), nullptr);
  EXPECT_EQ(wb.front_if(0, 0, 1)->elems[0].to_double(), 2.0);
}

TEST(WBufferUnit, PartialLineZeroPadsRecycledSlot) {
  Geometry g;
  WBuffer wb(g);
  // Cycle both ring slots with full lines, then land a 3-element edge line
  // in the first slot again: its stale tail must read as zero.
  for (uint32_t trav = 0; trav < WBuffer::kDepth; ++trav) {
    wb.push_bits(0, 0, trav, bits_of(1.0).data(), 16);
    wb.pop(0);
  }
  wb.push_bits(0, 0, 7, bits_of(2.0).data(), 3);
  const WLine* line = wb.front_if(0, 0, 7);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->elems[2].to_double(), 2.0);
  EXPECT_EQ(line->elems[3].bits(), 0x0000);
  EXPECT_EQ(line->elems[15].bits(), 0x0000);
}

TEST(WBufferUnit, ResetClears) {
  Geometry g;
  WBuffer wb(g);
  wb.push_bits(2, /*tile=*/1, /*trav=*/4, bits_of(3.0).data(), 16);
  wb.reset();
  EXPECT_EQ(wb.front_if(2, 1, 4), nullptr);
  EXPECT_TRUE(wb.can_push(2));
}

TEST(ZBufferUnit, CaptureAndStoreEmission) {
  Geometry g;  // L=8, 16 j-slots
  ZBuffer zb(g);
  Job job;
  job.m = 8;
  job.n = 4;
  job.k = 16;
  ASSERT_TRUE(zb.can_open_tile());
  zb.open_tile(0);
  std::vector<Float16> col(g.l);
  for (unsigned tau = 0; tau < g.j_slots(); ++tau) {
    for (unsigned r = 0; r < g.l; ++r) col[r] = f16(static_cast<double>(r + tau));
    zb.capture(0, tau, col);
  }
  zb.close_tile(0, /*z_ptr=*/0x10000000, job, /*mt=*/0, /*kt=*/0);
  EXPECT_EQ(zb.pending_stores(), 8u);  // one row store per valid row
  const ZStore& st = zb.front_store();
  EXPECT_EQ(st.addr, 0x10000000u);
  EXPECT_EQ(st.n_halfwords, 16u);
  EXPECT_EQ(st.data[3].to_double(), 3.0);  // row 0, tau 3
  for (int i = 0; i < 8; ++i) zb.pop_store();
  EXPECT_TRUE(zb.drained());
}

TEST(ZBufferUnit, EdgeTileClipsRowsAndColumns) {
  Geometry g;
  ZBuffer zb(g);
  Job job;
  job.m = 10;  // second m-tile has 2 valid rows
  job.n = 4;
  job.k = 20;  // second k-tile has 4 valid columns
  zb.open_tile(3);  // tile (mt=1, kt=1) in a 2x2 tiling
  std::vector<Float16> col(g.l, f16(1.0));
  for (unsigned tau = 0; tau < g.j_slots(); ++tau) zb.capture(3, tau, col);
  zb.close_tile(3, 0x10000000, job, /*mt=*/1, /*kt=*/1);
  EXPECT_EQ(zb.pending_stores(), 2u);  // rows 8, 9 only
  EXPECT_EQ(zb.front_store().n_halfwords, 4u);  // columns 16..19 only
  // Address of row 8, column 16: (8*20 + 16) * 2 bytes.
  EXPECT_EQ(zb.front_store().addr, 0x10000000u + (8 * 20 + 16) * 2);
}

TEST(ZBufferUnit, BackpressureBounds) {
  Geometry g;
  ZBuffer zb(g);
  Job job;
  job.m = 64;
  job.n = 4;
  job.k = 16;
  std::vector<Float16> col(g.l, f16(1.0));
  // Fill both tile buffers and their stores without draining.
  for (uint64_t t = 0; t < ZBuffer::kTileBuffers; ++t) {
    ASSERT_TRUE(zb.can_open_tile());
    zb.open_tile(t);
    for (unsigned tau = 0; tau < g.j_slots(); ++tau) zb.capture(t, tau, col);
    zb.close_tile(t, 0x10000000, job, static_cast<unsigned>(t), 0);
  }
  EXPECT_FALSE(zb.can_open_tile());  // pending stores exceed the bound
  while (zb.has_store()) zb.pop_store();
  EXPECT_TRUE(zb.can_open_tile());
}

}  // namespace
}  // namespace redmule::core
