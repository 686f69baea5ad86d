#include "mem/l2.hpp"

#include <algorithm>
#include <cstring>

namespace redmule::mem {

namespace {

bool all_zero(const uint8_t* p, uint32_t len) {
  for (uint32_t i = 0; i < len; ++i)
    if (p[i] != 0) return false;
  return true;
}

uint64_t resident_bytes_of(const std::vector<std::shared_ptr<L2Memory::Page>>& pages) {
  uint64_t n = 0;
  for (const auto& p : pages)
    if (p) n += L2Memory::kPageBytes;
  return n;
}

}  // namespace

uint64_t L2Memory::State::resident_bytes() const { return resident_bytes_of(pages); }

L2Memory::L2Memory(L2Config cfg) : cfg_(cfg) {
  REDMULE_REQUIRE(cfg.size_bytes > 0, "L2 cannot be empty");
  REDMULE_REQUIRE(cfg.bytes_per_cycle > 0, "L2 bandwidth must be positive");
  pages_.resize((static_cast<uint64_t>(cfg.size_bytes) + kPageBytes - 1) /
                kPageBytes);
}

L2Memory::Page* L2Memory::writable_page(size_t page_idx) {
  std::shared_ptr<Page>& slot = pages_[page_idx];
  if (slot && slot.use_count() == 1) return slot.get();
  std::shared_ptr<Page> page;
  if (spare_.empty()) {
    page = std::make_shared<Page>();
  } else {
    page = std::move(spare_.back());
    spare_.pop_back();
  }
  if (slot)
    *page = *slot;  // shared with a snapshot image: copy before the write (COW)
  else
    page->fill(0);
  slot = std::move(page);
  return slot.get();
}

void L2Memory::drop_pages() {
  std::vector<std::shared_ptr<Page>> dropped;
  for (auto& slot : pages_) {
    if (slot && slot.use_count() == 1) dropped.push_back(std::move(slot));
    slot.reset();
  }
  if (!dropped.empty()) spare_ = std::move(dropped);
}

void L2Memory::write(uint32_t addr, const void* src, uint32_t len) {
  REDMULE_REQUIRE(contains(addr, len), "write outside L2");
  const auto* s = static_cast<const uint8_t*>(src);
  uint32_t off = addr - cfg_.base_addr;
  while (len > 0) {
    const size_t page_idx = off / kPageBytes;
    const uint32_t in_page = off % kPageBytes;
    const uint32_t chunk = std::min(len, kPageBytes - in_page);
    // Zeros written over an absent page are already there: skipping the
    // materialization keeps staging's zero_region passes from densifying
    // the memory (and from forcing needless page copies after a fork).
    if (pages_[page_idx] || !all_zero(s, chunk))
      std::memcpy(writable_page(page_idx)->data() + in_page, s, chunk);
    s += chunk;
    off += chunk;
    len -= chunk;
  }
}

void L2Memory::read(uint32_t addr, void* dst, uint32_t len) const {
  REDMULE_REQUIRE(contains(addr, len), "read outside L2");
  auto* d = static_cast<uint8_t*>(dst);
  uint32_t off = addr - cfg_.base_addr;
  while (len > 0) {
    const size_t page_idx = off / kPageBytes;
    const uint32_t in_page = off % kPageBytes;
    const uint32_t chunk = std::min(len, kPageBytes - in_page);
    const Page* page = pages_[page_idx].get();
    if (page)
      std::memcpy(d, page->data() + in_page, chunk);
    else
      std::memset(d, 0, chunk);
    d += chunk;
    off += chunk;
    len -= chunk;
  }
}

void L2Memory::fill(uint8_t byte) {
  if (byte == 0) {
    reset();  // all-zero is exactly the freshly-constructed (pageless) state
    return;
  }
  for (auto& slot : pages_) {
    if (!slot || slot.use_count() != 1) slot = std::make_shared<Page>();
    slot->fill(byte);
  }
}

void L2Memory::reset() { drop_pages(); }

L2Memory::State L2Memory::save_state() const { return State{pages_}; }

void L2Memory::restore_state(const State& s) {
  REDMULE_REQUIRE(s.pages.size() == pages_.size(),
                  "L2 state capacity mismatch");
  drop_pages();
  pages_ = s.pages;
}

uint64_t L2Memory::resident_bytes() const { return resident_bytes_of(pages_); }

}  // namespace redmule::mem
