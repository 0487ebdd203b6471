#include "vhp/sim/memory.hpp"

#include <cstring>

namespace vhp::sim {

const Memory::PageBytes* Memory::bytes_for_read(u64 page_index) const {
  auto it = pages_.find(page_index);
  return it == pages_.end() ? nullptr : it->second.bytes.get();
}

Memory::PageBytes& Memory::bytes_for_write(u64 page_index) {
  Page& page = pages_[page_index];
  ++page.version;
  if (!page.bytes) {
    page.bytes = std::make_unique<PageBytes>();
    page.bytes->fill(0);
    ++resident_;
  }
  return *page.bytes;
}

const Memory::Page& Memory::page(u64 addr) {
  return pages_[addr / kPageBytes];
}

void Memory::clear() {
  for (auto& [index, page] : pages_) {
    page.bytes.reset();
    ++page.version;
  }
  resident_ = 0;
}

void Memory::read(u64 addr, std::span<u8> out) const {
  ++reads_;
  std::size_t done = 0;
  while (done < out.size()) {
    const u64 page_index = (addr + done) / kPageBytes;
    const std::size_t offset = (addr + done) % kPageBytes;
    const std::size_t chunk =
        std::min(out.size() - done, kPageBytes - offset);
    if (const PageBytes* bytes = bytes_for_read(page_index)) {
      std::memcpy(out.data() + done, bytes->data() + offset, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
}

Bytes Memory::read(u64 addr, std::size_t n) const {
  Bytes out(n);
  read(addr, out);
  return out;
}

void Memory::write(u64 addr, std::span<const u8> data) {
  ++writes_;
  std::size_t done = 0;
  while (done < data.size()) {
    const u64 page_index = (addr + done) / kPageBytes;
    const std::size_t offset = (addr + done) % kPageBytes;
    const std::size_t chunk =
        std::min(data.size() - done, kPageBytes - offset);
    std::memcpy(bytes_for_write(page_index).data() + offset,
                data.data() + done, chunk);
    done += chunk;
  }
}

u8 Memory::read_u8(u64 addr) const {
  u8 v = 0;
  read(addr, std::span{&v, 1});
  return v;
}

u32 Memory::read_u32(u64 addr) const {
  std::array<u8, 4> raw{};
  read(addr, raw);
  return static_cast<u32>(raw[0]) | (static_cast<u32>(raw[1]) << 8) |
         (static_cast<u32>(raw[2]) << 16) | (static_cast<u32>(raw[3]) << 24);
}

void Memory::write_u8(u64 addr, u8 value) {
  write(addr, std::span{&value, 1});
}

void Memory::write_u32(u64 addr, u32 value) {
  const std::array<u8, 4> raw{
      static_cast<u8>(value), static_cast<u8>(value >> 8),
      static_cast<u8>(value >> 16), static_cast<u8>(value >> 24)};
  write(addr, raw);
}

}  // namespace vhp::sim
