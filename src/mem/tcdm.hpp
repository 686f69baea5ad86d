/// \file tcdm.hpp
/// \brief Tightly-Coupled Data Memory: word-interleaved SRAM banks.
///
/// The PULP cluster TCDM is a set of single-ported 32-bit SRAM banks with
/// word-level interleaving: consecutive 32-bit words live in consecutive
/// banks. One access per bank per cycle; arbitration lives in the HCI
/// (hci.hpp), not here. This class is pure storage plus the address map,
/// and offers zero-time backdoor accessors used by testbenches and by the
/// host side of the driver to (un)load matrices.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace redmule::mem {

struct TcdmConfig {
  uint32_t base_addr = 0x10000000;  ///< cluster-local TCDM base
  unsigned n_banks = 16;            ///< word-interleaved banks
  unsigned words_per_bank = 2048;   ///< 8 KiB/bank -> 128 KiB total (default)

  friend bool operator==(const TcdmConfig&, const TcdmConfig&) = default;

  uint32_t size_bytes() const { return n_banks * words_per_bank * 4; }
};

class Tcdm {
 public:
  explicit Tcdm(TcdmConfig cfg = {});

  const TcdmConfig& config() const { return cfg_; }

  bool contains(uint32_t addr, uint32_t len = 1) const {
    return addr >= cfg_.base_addr && addr + len <= cfg_.base_addr + cfg_.size_bytes();
  }

  /// Bank index of the 32-bit word containing \p addr.
  unsigned bank_of(uint32_t addr) const {
    REDMULE_ASSERT(contains(addr));
    return ((addr - cfg_.base_addr) >> 2) % cfg_.n_banks;
  }

  /// Single-cycle bank access used by the HCI after arbitration.
  uint32_t read_word(uint32_t addr) const;
  /// Byte-enable write: be bit i enables byte i of the word.
  void write_word(uint32_t addr, uint32_t wdata, uint8_t be = 0xF);

  // --- Zero-time backdoor (testbench/host only; not part of timing) --------
  void backdoor_write(uint32_t addr, const void* src, uint32_t len);
  void backdoor_read(uint32_t addr, void* dst, uint32_t len) const;
  uint16_t backdoor_read_u16(uint32_t addr) const;
  void backdoor_write_u16(uint32_t addr, uint16_t v);
  void fill(uint8_t byte = 0);

  /// In-place re-initialization to the freshly-constructed state (all words
  /// zero). Part of the cluster reset path used by pooled batch workers.
  void reset() { fill(0); }

  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  /// The TCDM is pure storage, so its snapshot is the word array verbatim.
  struct State {
    std::vector<uint32_t> words;
  };
  State save_state() const { return State{words_}; }
  void restore_state(const State& s) {
    REDMULE_REQUIRE(s.words.size() == words_.size(),
                    "TCDM state capacity mismatch");
    words_ = s.words;
  }

 private:
  uint32_t word_index(uint32_t addr) const {
    REDMULE_ASSERT(contains(addr, 4));
    REDMULE_ASSERT((addr & 3u) == 0);
    return (addr - cfg_.base_addr) >> 2;
  }

  TcdmConfig cfg_;
  // Stored flat in word order; bank b, row r is word r*n_banks + b. Keeping
  // it flat makes backdoor block copies trivial while bank_of() still gives
  // the interleaving the arbiter needs.
  std::vector<uint32_t> words_;
};

}  // namespace redmule::mem
