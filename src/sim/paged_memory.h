// Copy-on-write paged backing store for the 64 KiB device address
// space -- the memory-diet half of fleet scale. Every DeviceSession of
// a build boots byte-identical memory, so the Bus no longer owns a
// flat 64 KiB array: the address space is 256 pages of 256 bytes, each
// page either
//
//   - *shared*: a read-only view into the build's immutable flat image
//     (or the static zero page when no base is attached / the page was
//     wiped) -- costs nothing per device, or
//   - *owned*: a private 256-byte copy, materialized lazily by the
//     first store that lands on the page.
//
// Reads index a per-page pointer table that is always valid, so the
// inline read path costs one extra dependent load over the old flat
// array. Writes index a parallel table that is null until the page is
// owned; the miss path copies the current view into a recycled page
// and retries. Page granularity (256 B) divides every region boundary
// in the memory map, and word accesses are even-aligned, so no access
// ever straddles a page.
//
// Whole-image operations become page-map edits instead of 64 KiB
// copies: wipe_volatile() points RAM pages at the zero page,
// reflash() points the code pages back at the base image, and an
// adopted build swaps the base and reclaims owned pages whose bytes
// already match it. Owned pages are recycled through a free list, so a
// device that cycles write/wipe forever allocates a bounded set.
#ifndef EILID_SIM_PAGED_MEMORY_H
#define EILID_SIM_PAGED_MEMORY_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace eilid::sim {

class PagedMemory {
 public:
  static constexpr size_t kPageBytes = 256;
  static constexpr size_t kPageCount = 0x10000 / kPageBytes;

  PagedMemory();

  // --- inline fast paths (the Bus's byte/word accessors) ------------
  uint8_t read(uint16_t addr) const {
    return read_[addr >> 8][addr & 0xFF];
  }
  // `addr` must be even (the Bus masks word addresses), so addr+1 stays
  // inside the same page.
  uint16_t read_word(uint16_t addr) const {
    const uint8_t* page = read_[addr >> 8];
    const size_t off = addr & 0xFF;
    return static_cast<uint16_t>(page[off] |
                                 (static_cast<uint16_t>(page[off + 1]) << 8));
  }
  void write(uint16_t addr, uint8_t value) {
    uint8_t* page = write_[addr >> 8];
    if (page == nullptr) page = materialize(addr >> 8);
    page[addr & 0xFF] = value;
  }
  void write_word(uint16_t addr, uint16_t value) {
    uint8_t* page = write_[addr >> 8];
    if (page == nullptr) page = materialize(addr >> 8);
    const size_t off = addr & 0xFF;
    page[off] = static_cast<uint8_t>(value);
    page[off + 1] = static_cast<uint8_t>(value >> 8);
  }

  // --- whole-image / page-map operations ----------------------------
  // Attach (or swap) the shared base image every non-owned page reads
  // through; null detaches (non-owned pages read zero). The image must
  // hold 65536 bytes; the pointer is held for the lifetime of the
  // attachment. Owned pages keep their private bytes -- swapping the
  // base never changes what an owned page reads.
  void attach_base(std::shared_ptr<const std::vector<uint8_t>> base);
  const std::shared_ptr<const std::vector<uint8_t>>& base() const {
    return base_;
  }

  // Point every page wholly inside [first, last] back at the base
  // image (zero when none), recycling owned pages; partial head/tail
  // pages are copied byte-wise. This is reflash: a 64 KiB restore for
  // the price of a few pointer stores.
  void reset_range_to_base(uint16_t first, uint16_t last);
  // Same shape, but the range reads zero afterwards (wipe_volatile:
  // volatile regions clear regardless of what the base holds there).
  void zero_range(uint16_t first, uint16_t last);
  // Recycle owned pages inside [first, last] whose bytes already equal
  // the base image's -- content-preserving by construction. Called
  // after an adopted build swaps the base: the update wrote exactly the
  // target image's bytes, so the pages it materialized match the new
  // base and can be dropped.
  void reclaim_identical(uint16_t first, uint16_t last);

  // Bulk store (image loading); wraps through address 0 like the
  // byte-at-a-time loop it models.
  void store_bytes(uint16_t addr, const uint8_t* bytes, size_t len);

  // --- accounting ---------------------------------------------------
  // Private bytes this instance holds beyond the shared base image:
  // materialized pages (owned + free-listed) plus the page tables.
  // The per-device metric tests/test_fleet_scale.cpp pins exactly.
  size_t resident_bytes() const {
    return pages_.size() * kPageBytes + sizeof(read_) + sizeof(write_);
  }
  size_t owned_pages() const { return pages_.size() - free_.size(); }

 private:
  uint8_t* materialize(size_t page);
  const uint8_t* base_page(size_t page) const;
  void release(size_t page, const uint8_t* view);

  std::array<const uint8_t*, kPageCount> read_;
  std::array<uint8_t*, kPageCount> write_{};
  std::shared_ptr<const std::vector<uint8_t>> base_;
  // Owned page storage. unique_ptr per page keeps addresses stable
  // while pages_ grows; retired pages go to free_ for reuse instead of
  // back to the allocator, so reset-heavy devices reach a steady state.
  std::vector<std::unique_ptr<std::array<uint8_t, kPageBytes>>> pages_;
  std::vector<uint8_t*> free_;
};

}  // namespace eilid::sim

#endif  // EILID_SIM_PAGED_MEMORY_H
