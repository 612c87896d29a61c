// The one byte codec for every LYNX layout (DESIGN.md §17).  Integers
// are little-endian, a byte at a time, so a layout is host-independent.
// A Writer fills a buffer sized exactly in advance; a Reader reads a
// byte range in place, and every read past its end dies through one
// assertion ("truncated LYNX message"), the bound of every decoder.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace lynx::codec {

class Writer {
 public:
  // `size` is the whole layout: finish() asserts the fields filled it.
  explicit Writer(std::size_t size) : buf_(size), p_(buf_.data()) {}

  Writer& u8(std::uint8_t v) { return le(v, 1); }
  Writer& u32(std::uint32_t v) { return le(v, 4); }
  Writer& u64(std::uint64_t v) { return le(v, 8); }
  // The bytes of `seq` as they are, no length word.
  template <typename Seq>
  Writer& bytes(const Seq& seq) {
    RELYNX_ASSERT_MSG(
        seq.size() <= static_cast<std::size_t>(buf_.data() + buf_.size() - p_),
        "LYNX layout overflows its buffer");
    p_ = std::copy(seq.begin(), seq.end(), p_);
    return *this;
  }
  // A u32 length word, then the bytes.
  template <typename Seq>
  Writer& blob(const Seq& seq) {
    return u32(static_cast<std::uint32_t>(seq.size())).bytes(seq);
  }

  // Hands the buffer over; a layout that left bytes unwritten is a bug.
  [[nodiscard]] std::vector<std::uint8_t> finish() {
    RELYNX_ASSERT_MSG(p_ == buf_.data() + buf_.size(),
                      "LYNX layout does not fill its buffer");
    return std::move(buf_);
  }

 private:
  Writer& le(std::uint64_t v, std::size_t n) {
    std::array<std::uint8_t, 8> b;
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return bytes(std::span(b).first(n));
  }

  std::vector<std::uint8_t> buf_;
  std::uint8_t* p_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  // The next `n` bytes, in place.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    RELYNX_ASSERT_MSG(n <= remaining(), "truncated LYNX message");
    pos_ += n;
    return in_.subspan(pos_ - n, n);
  }
  // A u32 length word, then that many bytes.
  std::span<const std::uint8_t> blob() { return bytes(u32()); }
  // Everything not read yet.
  std::span<const std::uint8_t> rest() { return bytes(remaining()); }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }

 private:
  std::uint64_t le(std::size_t n) {
    const std::span<const std::uint8_t> b = bytes(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

}  // namespace lynx::codec
