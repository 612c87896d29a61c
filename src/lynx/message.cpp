#include "lynx/message.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "lynx/codec.hpp"

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

}  // namespace

Serialized serialize(const Message& m) {
  std::size_t size = 4 + m.op.size() + 4;
  for (const Value& v : m.args) size += 1 + payload_size(v);
  codec::Writer w(size);
  w.blob(m.op).u32(static_cast<std::uint32_t>(m.args.size()));
  Serialized out;
  for (const Value& v : m.args) {
    w.u8(static_cast<std::uint8_t>(type_of(v)));
    switch (type_of(v)) {
      case ValueType::kInt:
        w.u64(static_cast<std::uint64_t>(std::get<std::int64_t>(v)));
        break;
      case ValueType::kReal:
        w.u64(std::bit_cast<std::uint64_t>(std::get<double>(v)));
        break;
      case ValueType::kString:
        w.blob(std::get<std::string>(v));
        break;
      case ValueType::kBytes:
        w.blob(std::get<Bytes>(v));
        break;
      case ValueType::kLink:
        w.u32(static_cast<std::uint32_t>(out.enclosures.size()));
        out.enclosures.push_back(std::get<LinkHandle>(v));
        break;
    }
  }
  out.body = w.finish();
  return out;
}

Message deserialize(const Bytes& body,
                    const std::vector<LinkHandle>& enclosures) {
  codec::Reader r(body);
  Message m;
  const auto op = r.blob();
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
      case ValueType::kReal:
        m.args.emplace_back(std::bit_cast<double>(r.u64()));
        break;
      case ValueType::kString: {
        const auto s = r.blob();
        m.args.emplace_back(std::in_place_type<std::string>, s.begin(),
                            s.end());
        break;
      }
      case ValueType::kBytes: {
        const auto b = r.blob();
        m.args.emplace_back(std::in_place_type<Bytes>, b.begin(), b.end());
        break;
      }
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
