#include "lynx/message.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace lynx {

ValueType type_of(const Value& v) {
  return static_cast<ValueType>(v.index());
}

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kInt: return "int";
    case ValueType::kReal: return "real";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
    case ValueType::kLink: return "link";
  }
  return "?";
}

std::vector<ValueType> Message::signature() const {
  std::vector<ValueType> sig;
  sig.reserve(args.size());
  for (const Value& v : args) sig.push_back(type_of(v));
  return sig;
}

std::size_t Message::count_links() const {
  std::size_t n = 0;
  for (const Value& v : args) {
    if (std::holds_alternative<LinkHandle>(v)) ++n;
  }
  return n;
}

Message make_message(std::string op, std::vector<Value> args) {
  return Message{std::move(op), std::move(args)};
}

namespace {

// Little-endian, a byte at a time, so the wire is host-independent.
std::uint8_t* put_le(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

template <typename Seq>
std::uint8_t* put_blob(std::uint8_t* p, const Seq& seq) {
  p = put_le(p, seq.size(), 4);
  return std::copy(seq.begin(), seq.end(), p);
}

// Bytes an argument takes after its tag byte.
std::size_t payload_size(const Value& v) {
  switch (type_of(v)) {
    case ValueType::kInt:
    case ValueType::kReal: return 8;
    case ValueType::kString: return 4 + std::get<std::string>(v).size();
    case ValueType::kBytes: return 4 + std::get<Bytes>(v).size();
    case ValueType::kLink: return 4;
  }
  return 0;
}

struct Reader {
  const Bytes& in;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return in.size() - pos; }

  std::uint8_t u8() {
    RELYNX_ASSERT_MSG(pos < in.size(), "truncated LYNX message");
    return in[pos++];
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  Bytes blob(std::size_t n) {
    RELYNX_ASSERT_MSG(pos + n <= in.size(), "truncated LYNX message");
    Bytes out(in.begin() + static_cast<std::ptrdiff_t>(pos),
              in.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return out;
  }
};

}  // namespace

Serialized serialize(const Message& m) {
  // One exact-size buffer, filled through a cursor: no regrowth.
  std::size_t size = 4 + m.op.size() + 4;
  for (const Value& v : m.args) size += 1 + payload_size(v);
  Serialized out;
  out.body.resize(size);
  std::uint8_t* p = put_blob(out.body.data(), m.op);
  p = put_le(p, m.args.size(), 4);
  for (const Value& v : m.args) {
    *p++ = static_cast<std::uint8_t>(type_of(v));
    switch (type_of(v)) {
      case ValueType::kInt:
        p = put_le(p, static_cast<std::uint64_t>(std::get<std::int64_t>(v)),
                   8);
        break;
      case ValueType::kReal: {
        std::uint64_t bits;
        const double d = std::get<double>(v);
        std::memcpy(&bits, &d, 8);
        p = put_le(p, bits, 8);
        break;
      }
      case ValueType::kString:
        p = put_blob(p, std::get<std::string>(v));
        break;
      case ValueType::kBytes:
        p = put_blob(p, std::get<Bytes>(v));
        break;
      case ValueType::kLink:
        p = put_le(p, out.enclosures.size(), 4);
        out.enclosures.push_back(std::get<LinkHandle>(v));
        break;
    }
  }
  RELYNX_ASSERT(p == out.body.data() + out.body.size());
  return out;
}

Message deserialize(const Bytes& body,
                    const std::vector<LinkHandle>& enclosures) {
  Reader r{body};
  Message m;
  const std::uint32_t op_len = r.u32();
  const Bytes op = r.blob(op_len);
  m.op.assign(op.begin(), op.end());
  const std::uint32_t argc = r.u32();
  // Every arg takes at least its tag byte, so a count beyond the bytes
  // left is a truncated body; it must not size the allocation.
  m.args.reserve(std::min<std::size_t>(argc, r.remaining()));
  for (std::uint32_t i = 0; i < argc; ++i) {
    const std::uint8_t raw = r.u8();
    RELYNX_ASSERT_MSG(raw <= static_cast<std::uint8_t>(ValueType::kLink),
                      "unknown LYNX value tag");
    switch (static_cast<ValueType>(raw)) {
      case ValueType::kInt:
        m.args.emplace_back(static_cast<std::int64_t>(r.u64()));
        break;
      case ValueType::kReal: {
        const std::uint64_t bits = r.u64();
        double d;
        std::memcpy(&d, &bits, 8);
        m.args.emplace_back(d);
        break;
      }
      case ValueType::kString: {
        const Bytes s = r.blob(r.u32());
        m.args.emplace_back(std::string(s.begin(), s.end()));
        break;
      }
      case ValueType::kBytes:
        m.args.emplace_back(r.blob(r.u32()));
        break;
      case ValueType::kLink: {
        const std::uint32_t idx = r.u32();
        RELYNX_ASSERT_MSG(idx < enclosures.size(),
                          "enclosure index out of range");
        m.args.emplace_back(enclosures[idx]);
        break;
      }
    }
  }
  RELYNX_ASSERT_MSG(r.remaining() == 0, "trailing bytes after LYNX message");
  return m;
}

}  // namespace lynx
