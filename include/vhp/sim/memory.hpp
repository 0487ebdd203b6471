// Byte-addressable memory model for HDL designs (the "Memory" block of the
// paper's Figure 1 board diagram, reusable by any device model such as the
// DMA engine example). Sparse page storage, so a 4 GiB address space costs
// only what is touched; optional access counters for verification.
//
// Every write path bumps the written page's version, so a consumer that keeps
// a derived copy of a page (the ISS's decoded-instruction cache) can tell a
// stale copy from a current one without being told about each write.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <unordered_map>

#include "vhp/common/bytes.hpp"
#include "vhp/common/types.hpp"

namespace vhp::sim {

class Memory {
 public:
  static constexpr std::size_t kPageBytes = 4096;
  using PageBytes = std::array<u8, kPageBytes>;

  /// One page of the address space.
  struct Page {
    /// Backing storage; null while the page reads as zero (never written,
    /// or freed by clear()).
    std::unique_ptr<PageBytes> bytes;
    /// Bumped by every write into the page and by clear(): a copy derived
    /// from the page's bytes is current while it carries this version.
    u64 version = 0;
  };

  explicit Memory(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Reads `out.size()` bytes from `addr`. Untouched memory reads as 0.
  void read(u64 addr, std::span<u8> out) const;

  /// Convenience: reads `n` bytes into a fresh buffer.
  [[nodiscard]] Bytes read(u64 addr, std::size_t n) const;

  void write(u64 addr, std::span<const u8> data);

  [[nodiscard]] u8 read_u8(u64 addr) const;
  [[nodiscard]] u32 read_u32(u64 addr) const;  // little-endian
  void write_u8(u64 addr, u8 value);
  void write_u32(u64 addr, u32 value);  // little-endian

  /// The page holding `addr`, for readers that cache what it holds. The
  /// reference stays valid for the Memory's lifetime: a page never written
  /// gets a record without storage (no resident page), and clear() frees
  /// storage but keeps the records. Not counted as a read.
  [[nodiscard]] const Page& page(u64 addr);

  /// Zero-fills everything: frees every page's storage and bumps every
  /// page's version.
  void clear();

  [[nodiscard]] std::size_t resident_pages() const { return resident_; }
  /// Calls of the read methods (reads through page() are not counted).
  [[nodiscard]] u64 reads() const { return reads_; }
  [[nodiscard]] u64 writes() const { return writes_; }

 private:
  /// Storage for reading; nullptr when the page reads as zero.
  [[nodiscard]] const PageBytes* bytes_for_read(u64 page_index) const;
  /// Storage for writing (allocated on first use); bumps the page version.
  PageBytes& bytes_for_write(u64 page_index);

  std::string name_;
  /// Node-based, so a Page reference survives rehashing; never erased.
  std::unordered_map<u64, Page> pages_;
  std::size_t resident_ = 0;
  mutable u64 reads_ = 0;
  u64 writes_ = 0;
};

}  // namespace vhp::sim
