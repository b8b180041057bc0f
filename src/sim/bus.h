// The memory bus: a 64 KB von Neumann address space with memory-mapped
// peripherals and *veto-capable* watchers.
//
// Watchers model bus-snooping hardware (CASU / EILID monitors). They
// see every CPU access before it commits and may deny it; a denied
// write never lands (this is how CASU guarantees PMEM immutability --
// the violating store is suppressed and the device resets).
//
// Hot-path layout: the common case (no watchers, plain memory access)
// is fully inlined; watcher checks and peripheral dispatch are the
// out-of-line slow path. Peripheral dispatch is an O(1) per-address
// table rather than a linear range scan, and pending_irq() is cached
// and recomputed only when something that can change an interrupt line
// actually happened (a tick that moved irq state, an ack, a peripheral
// register access, a reset).
#ifndef EILID_SIM_BUS_H
#define EILID_SIM_BUS_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/memory_map.h"
#include "sim/paged_memory.h"

namespace eilid::sim {

// A memory-mapped peripheral occupying a register address range.
class Peripheral {
 public:
  virtual ~Peripheral() = default;

  // Register interface (addresses are absolute).
  virtual uint16_t read(uint16_t addr) = 0;
  virtual void write(uint16_t addr, uint16_t value) = 0;

  // Advance the peripheral's clock by `cycles` CPU cycles. Returns
  // true when the tick may have changed this peripheral's interrupt
  // line (the bus uses this to keep its pending_irq() cache exact).
  virtual bool tick(uint64_t cycles) {
    (void)cycles;
    return false;
  }

  // Asserted interrupt line (vector index), or -1.
  virtual int pending_irq() const { return -1; }
  virtual void ack_irq() {}

  // No tick within this many cycles can assert this peripheral's
  // interrupt line (kIrqNever: ticking alone can never assert it --
  // only register access or host stimulus, which the superblock core
  // already treats as block-ending events). The block dispatcher sums
  // a block's cycles against this horizon so a timer firing mid-block
  // drops execution to the per-instruction core, which delivers the
  // IRQ at the architecturally exact instruction.
  static constexpr uint64_t kIrqNever = ~0ull;
  virtual uint64_t cycles_to_irq() const { return kIrqNever; }

  // Restore power-on state.
  virtual void reset() {}

  // Address range [first, last] this peripheral claims.
  virtual uint16_t first_addr() const = 0;
  virtual uint16_t last_addr() const = 0;
};

// Bus-snooping hardware monitor. Return false from an on_* hook to
// deny the access; record the violation reason internally (the machine
// queries the monitor afterwards).
class BusWatcher {
 public:
  virtual ~BusWatcher() = default;
  // Instruction fetch beginning at pc. `prev_pc` is the previous fetch
  // since the last reset (pc itself for the first fetch after one), so
  // a rule about transitions between regions needs no state of its own.
  //
  // Granularity: per-instruction execution fires this for every fetch.
  // Block dispatch (Cpu::run_block) fires it only at a run's first
  // fetch and wherever a chained run crosses from one predecoded range
  // into another; in between, every fetch stays inside the range of the
  // last checked one. The build's predecoded ranges are exactly secure
  // ROM and PMEM, so a rule that is a function of the region classes of
  // (prev_pc, pc) -- CASU's W^X and ROM entry/exit rules -- cannot trip
  // on a skipped fetch. A watcher that needs every fetch (a trigger on
  // one PC, a tracer) must be a sim::Monitor claiming wants_step(),
  // which pins its machine to per-instruction execution.
  virtual bool on_fetch(uint16_t pc, uint16_t prev_pc) {
    (void)pc;
    (void)prev_pc;
    return true;
  }
  virtual bool on_read(uint16_t addr, uint16_t pc) {
    (void)addr;
    (void)pc;
    return true;
  }
  virtual bool on_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc) {
    (void)addr;
    (void)value;
    (void)byte;
    (void)pc;
    return true;
  }
};

class Bus {
 public:
  Bus();

  // --- CPU-visible accesses (watched, peripheral-aware). ---
  // `pc` attributes the access to the currently executing instruction.
  // Denied reads return 0xFFFF; denied writes are dropped. Either sets
  // access_denied() until cleared.
  uint16_t read_word(uint16_t addr, uint16_t pc) {
    addr &= 0xFFFE;  // word accesses are even-aligned (LSB ignored, as in hw)
    if (!watchers_.empty() && !check_read(addr, pc)) return 0xFFFF;
    if (is_periph(addr)) return periph_read_word(addr);
    return raw_word(addr);
  }
  uint8_t read_byte(uint16_t addr, uint16_t pc) {
    if (!watchers_.empty() && !check_read(addr, pc)) return 0xFF;
    if (is_periph(addr)) return periph_read_byte(addr);
    return mem_.read(addr);
  }
  void write_word(uint16_t addr, uint16_t value, uint16_t pc) {
    addr &= 0xFFFE;
    if (!watchers_.empty() && !check_write(addr, value, /*byte=*/false, pc)) {
      return;
    }
    if (is_periph(addr)) {
      periph_write(addr, value);
      return;
    }
    note_code_store(addr);
    mem_.write_word(addr, value);
  }
  void write_byte(uint16_t addr, uint8_t value, uint16_t pc) {
    if (!watchers_.empty() && !check_write(addr, value, /*byte=*/true, pc)) {
      return;
    }
    if (is_periph(addr)) {
      periph_write(addr & 0xFFFE, value);
      return;
    }
    note_code_store(addr);
    mem_.write(addr, value);
  }

  // Instruction-fetch notification; false if a watcher denied it. See
  // BusWatcher::on_fetch for `prev_pc` and when the CPU calls this.
  bool notify_fetch(uint16_t pc, uint16_t prev_pc) {
    return watchers_.empty() || notify_fetch_slow(pc, prev_pc);
  }

  bool access_denied() const { return access_denied_; }
  void clear_access_denied() { access_denied_ = false; }

  // --- Raw accesses (image loading, decode, host inspection). ---
  // No watchers, no peripherals: backing memory only.
  uint16_t raw_word(uint16_t addr) const {
    return mem_.read_word(addr & 0xFFFE);
  }
  uint8_t raw_byte(uint16_t addr) const { return mem_.read(addr); }
  void raw_store_word(uint16_t addr, uint16_t value) {
    addr &= 0xFFFE;
    note_code_store(addr);
    mem_.write_word(addr, value);
  }
  void raw_store_byte(uint16_t addr, uint8_t value) {
    note_code_store(addr);
    mem_.write(addr, value);
  }
  // Bulk image load (wraps at the top of the address space like the
  // byte-at-a-time loop it replaces).
  void raw_store_bytes(uint16_t addr, std::span<const uint8_t> bytes);

  // Monotonic counter of stores that landed at or above the code floor
  // (secure ROM, the unmapped gap, and PMEM). A predecoded image
  // snapshot is valid only while this counter holds the value it had
  // when the image was attached; any later code store invalidates it
  // and the CPU falls back to interpretive decode (see Cpu::step).
  uint64_t code_generation() const { return code_generation_; }

  // --- Wiring. ---
  void add_watcher(BusWatcher* watcher) { watchers_.push_back(watcher); }
  void add_peripheral(Peripheral* peripheral);
  void tick_peripherals(uint64_t cycles) {
    bool irq_moved = false;
    for (auto* p : peripherals_) irq_moved |= p->tick(cycles);
    if (irq_moved) irq_dirty_ = true;
    horizon_dirty_ = true;  // time advanced; every horizon shrank
  }

  // --- Batched (superblock) peripheral time. ---
  // The block core retires several instructions per dispatch and owes
  // the peripherals their cycles only at observation points: accrue
  // per retired instruction; the debt persists across blocks and is
  // flushed wherever peripheral time becomes observable -- any CPU
  // peripheral register access (see periph_read_*/periph_write), every
  // IRQ-deliverability check, the per-step fallback, device reset, and
  // run() exit. A mid-block register read therefore observes exactly
  // the state the per-instruction core would have ticked it to: the
  // debt at that point is precisely the cycles of every retired-but-
  // unticked instruction before it.
  void accrue_ticks(uint64_t cycles) { tick_debt_ += cycles; }
  uint64_t tick_debt() const { return tick_debt_; }
  void flush_ticks() {
    if (tick_debt_ != 0) {
      uint64_t debt = tick_debt_;
      tick_debt_ = 0;
      tick_peripherals(debt);
    }
  }
  // Earliest cycle horizon at which ticking alone could assert a new
  // interrupt line (min over peripherals; kIrqNever when none can),
  // measured from the last tick flush. Cached: the block core consults
  // it once per dispatch, so the virtual sweep only reruns after
  // peripheral state or time actually moved.
  uint64_t cycles_until_irq() const {
    if (horizon_dirty_) {
      uint64_t horizon = Peripheral::kIrqNever;
      for (auto* p : peripherals_) {
        uint64_t c = p->cycles_to_irq();
        if (c < horizon) horizon = c;
      }
      horizon_cache_ = horizon;
      horizon_dirty_ = false;
    }
    return horizon_cache_;
  }
  // Highest-priority asserted line, or -1. Cached: recomputed only
  // after something that can move an interrupt line (tick/ack/register
  // access/reset) -- or after invalidate_irq_cache().
  int pending_irq() const {
    if (irq_dirty_) {
      irq_cache_ = compute_pending_irq();
      irq_dirty_ = false;
    }
    return irq_cache_;
  }
  void ack_irq(int line);
  void reset_peripherals();
  // True when any CPU access touched a peripheral register since the
  // last clear. The block core ends a block at such an instruction: a
  // register access can change interrupt state instantly (UART enable
  // with buffered input), and the per-instruction core re-checks
  // deliverability right after -- so must the block core.
  bool periph_touched() const { return periph_touched_; }
  void clear_periph_touched() { periph_touched_ = false; }
  // Force the next pending_irq() to recompute. Machine::run calls this
  // on entry so host-side stimulus injected between runs (Uart::feed
  // and friends bypass the bus) is observed immediately.
  void invalidate_irq_cache() {
    irq_dirty_ = true;
    horizon_dirty_ = true;
  }

  // Zero RAM and secure RAM (CASU reset wipes volatile state; PMEM and
  // ROM persist). A page-map edit, not a fill: wiped pages read the
  // shared zero page until the next store re-materializes them.
  void wipe_volatile();

  // --- copy-on-write base image (fleet memory diet) -----------------
  // Attach (or swap) the immutable flat image this device's memory is
  // a copy-on-write overlay of -- every page the device never wrote
  // reads the shared image directly, so N sessions of one build cost
  // one image plus their private dirty pages. Owned pages keep their
  // bytes across a swap. Conservatively bumps the code generation:
  // callers re-attach the decoded table afterwards (DeviceSession does).
  void attach_base_image(std::shared_ptr<const std::vector<uint8_t>> base) {
    mem_.attach_base(std::move(base));
    ++code_generation_;
  }
  const std::shared_ptr<const std::vector<uint8_t>>& base_image() const {
    return mem_.base();
  }
  // Restore [first, last] to the attached base image (reflash): full
  // pages are pointer resets, owned pages are recycled. Counts as a
  // code store when the range reaches the code floor.
  void reset_range_to_base(uint16_t first, uint16_t last) {
    mem_.reset_range_to_base(first, last);
    if (last >= kRomStart) ++code_generation_;
  }
  // Drop owned pages in [first, last] whose bytes already equal the
  // base -- content-preserving, so the code generation is untouched.
  // Called after a base swap to return update-written pages to shared.
  void reclaim_identical_pages(uint16_t first, uint16_t last) {
    mem_.reclaim_identical(first, last);
  }
  // Private memory this device holds beyond the shared image --
  // materialized pages plus page tables (the per-policy pins in
  // tests/test_fleet_scale.cpp read this).
  size_t resident_memory_bytes() const { return mem_.resident_bytes(); }
  size_t owned_pages() const { return mem_.owned_pages(); }

 private:
  Peripheral* peripheral_at(uint16_t addr) const {
    return addr <= kPeriphEnd ? periph_map_[addr] : nullptr;
  }
  bool check_read(uint16_t addr, uint16_t pc);
  bool check_write(uint16_t addr, uint16_t value, bool byte, uint16_t pc);
  bool notify_fetch_slow(uint16_t pc, uint16_t prev_pc);
  uint16_t periph_read_word(uint16_t addr);
  uint8_t periph_read_byte(uint16_t addr);
  void periph_write(uint16_t addr, uint16_t value);
  int compute_pending_irq() const;
  // Everything at or above the secure ROM can hold code reachable by a
  // predecoded range's extension-word reads; stores below it are plain
  // data traffic and never touch the decode cache.
  void note_code_store(uint16_t addr) {
    if (addr >= kRomStart) ++code_generation_;
  }

  PagedMemory mem_;
  std::vector<BusWatcher*> watchers_;
  std::vector<Peripheral*> peripherals_;
  std::array<Peripheral*, kPeriphEnd + 1> periph_map_{};
  bool access_denied_ = false;
  bool periph_touched_ = false;
  uint64_t code_generation_ = 0;
  uint64_t tick_debt_ = 0;
  mutable bool irq_dirty_ = true;
  mutable int irq_cache_ = -1;
  mutable bool horizon_dirty_ = true;
  mutable uint64_t horizon_cache_ = 0;
};

}  // namespace eilid::sim

#endif  // EILID_SIM_BUS_H
