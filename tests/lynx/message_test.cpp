// Unit tests for LYNX message serialization.
#include "lynx/message.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdlib>
#include <cstring>

#include "sim/random.hpp"

namespace lynx {
namespace {

TEST(MessageTest, RoundTripsAllValueTypes) {
  Message m = make_message(
      "mixed", {std::int64_t(-42), 3.25, std::string("hi"),
                Bytes{1, 2, 3, 255}, LinkHandle(7)});
  Serialized s = serialize(m);
  ASSERT_EQ(s.enclosures.size(), 1u);
  EXPECT_EQ(s.enclosures[0], LinkHandle(7));

  Message back = deserialize(s.body, {LinkHandle(99)});
  EXPECT_EQ(back.op, "mixed");
  ASSERT_EQ(back.args.size(), 5u);
  EXPECT_EQ(std::get<std::int64_t>(back.args[0]), -42);
  EXPECT_EQ(std::get<double>(back.args[1]), 3.25);
  EXPECT_EQ(std::get<std::string>(back.args[2]), "hi");
  EXPECT_EQ(std::get<Bytes>(back.args[3]), (Bytes{1, 2, 3, 255}));
  // the receiver-side enclosure handle is substituted
  EXPECT_EQ(std::get<LinkHandle>(back.args[4]), LinkHandle(99));
}

TEST(MessageTest, EmptyMessage) {
  Message m = make_message("nop", {});
  Serialized s = serialize(m);
  EXPECT_TRUE(s.enclosures.empty());
  Message back = deserialize(s.body, {});
  EXPECT_EQ(back.op, "nop");
  EXPECT_TRUE(back.args.empty());
}

TEST(MessageTest, MultipleEnclosuresKeepOrder) {
  Message m = make_message("many", {LinkHandle(1), std::int64_t(5),
                                    LinkHandle(2), LinkHandle(3)});
  EXPECT_EQ(m.count_links(), 3u);
  Serialized s = serialize(m);
  ASSERT_EQ(s.enclosures.size(), 3u);
  EXPECT_EQ(s.enclosures[0], LinkHandle(1));
  EXPECT_EQ(s.enclosures[1], LinkHandle(2));
  EXPECT_EQ(s.enclosures[2], LinkHandle(3));
  Message back =
      deserialize(s.body, {LinkHandle(10), LinkHandle(20), LinkHandle(30)});
  EXPECT_EQ(std::get<LinkHandle>(back.args[0]), LinkHandle(10));
  EXPECT_EQ(std::get<LinkHandle>(back.args[2]), LinkHandle(20));
  EXPECT_EQ(std::get<LinkHandle>(back.args[3]), LinkHandle(30));
}

TEST(MessageTest, SignatureReflectsTypes) {
  Message m = make_message("sig", {std::int64_t(1), 2.0, std::string("x")});
  auto sig = m.signature();
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_EQ(sig[0], ValueType::kInt);
  EXPECT_EQ(sig[1], ValueType::kReal);
  EXPECT_EQ(sig[2], ValueType::kString);
}

TEST(MessageTest, PayloadSizeScalesWithContent) {
  Message small = make_message("op", {Bytes(10, 0)});
  Message large = make_message("op", {Bytes(1000, 0)});
  EXPECT_EQ(serialize(large).body.size() - serialize(small).body.size(),
            990u);
}

// ---- malformed bodies ------------------------------------------------------
//
// A body the decoder cannot account for byte by byte dies through the
// one assertion path, whatever shape the damage takes.

Bytes header(std::uint32_t argc) {
  // op_len = 0, then argc, little-endian like serialize().
  Bytes b(4, 0);
  for (int i = 0; i < 4; ++i) {
    b.push_back(static_cast<std::uint8_t>(argc >> (8 * i)));
  }
  return b;
}

TEST(MessageDeathTest, HugeArgcIsTruncationNotAnAllocation) {
  const Bytes body = header(0xFFFFFFFFu);
  EXPECT_DEATH((void)deserialize(body, {}), "truncated LYNX message");
}

TEST(MessageDeathTest, UnknownValueTagIsRejected) {
  Bytes body = header(1);
  body.push_back(7);
  body.insert(body.end(), 8, 0);  // a payload as long as an int's
  EXPECT_DEATH((void)deserialize(body, {}), "unknown LYNX value tag");
}

TEST(MessageDeathTest, TrailingBytesAreRejected) {
  Bytes body = serialize(make_message("op", {std::int64_t(1)})).body;
  body.push_back(0);
  EXPECT_DEATH((void)deserialize(body, {}), "trailing bytes after LYNX message");
}

// ---- round-trip property -----------------------------------------------------

Value random_value(sim::Rng& rng, std::uint64_t* next_link) {
  switch (rng.next_below(5)) {
    case 0:
      return static_cast<std::int64_t>(rng.next_u64());
    case 1: {
      // Any bit pattern, NaNs and infinities included.
      const std::uint64_t bits = rng.next_u64();
      double d;
      std::memcpy(&d, &bits, 8);
      return d;
    }
    case 2: {
      std::string str(rng.next_below(40), '\0');
      for (char& c : str) c = static_cast<char>(rng.next_below(256));
      return str;
    }
    case 3: {
      Bytes b(rng.next_below(300));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(256));
      return b;
    }
    default:
      return LinkHandle((*next_link)++);
  }
}

bool same_value(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* d = std::get_if<double>(&a)) {
    return std::memcmp(d, &std::get<double>(b), sizeof(double)) == 0;
  }
  return a == b;
}

TEST(MessageTest, SeededRoundTripPropertyOverEveryValueType) {
  sim::Rng rng(2026);
  std::uint64_t next_link = 1;
  bool seen[5] = {};
  for (int n = 0; n < 1500; ++n) {
    Message m;
    m.op.assign(rng.next_below(12), 'a');
    for (char& c : m.op) c = static_cast<char>('a' + rng.next_below(26));
    const std::uint64_t argc = rng.next_below(9);
    for (std::uint64_t i = 0; i < argc; ++i) {
      m.args.push_back(random_value(rng, &next_link));
      seen[m.args.back().index()] = true;
    }
    const Serialized s = serialize(m);
    ASSERT_EQ(s.enclosures.size(), m.count_links()) << "message " << n;
    const Message back = deserialize(s.body, s.enclosures);
    ASSERT_EQ(back.op, m.op) << "message " << n;
    ASSERT_EQ(back.args.size(), m.args.size()) << "message " << n;
    for (std::size_t i = 0; i < m.args.size(); ++i) {
      ASSERT_TRUE(same_value(back.args[i], m.args[i]))
          << "message " << n << " arg " << i;
    }
  }
  for (const bool type_seen : seen) EXPECT_TRUE(type_seen);
}

// ---- seeded mutation ---------------------------------------------------------
//
// Damaged bodies must either decode or die through the decoder's own
// assertion (SIGABRT).  Each mutant is decoded in a death-test child that
// exits 0 once decoding returns; a sanitizer report exits 1 and so fails
// the predicate, as would any other crash.

bool decoded_or_asserted(int status) {
  return (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
         (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
}

// Valid bodies to damage: one per value type, a mix, and two that carry
// enclosures between other arguments.
std::vector<Message> mutation_seeds() {
  return {
      make_message("int", {std::int64_t(-7)}),
      make_message("real", {2.5}),
      make_message("string", {std::string("hello, world")}),
      make_message("bytes", {Bytes{0, 1, 2, 3, 254, 255}}),
      make_message("link", {LinkHandle(1)}),
      make_message("mixed", {std::int64_t(1), 0.5, std::string("s"),
                             Bytes(40, 9), LinkHandle(2)}),
      make_message("encs", {LinkHandle(3), std::string("between"),
                            LinkHandle(4), LinkHandle(5)}),
      make_message("", {Bytes{}, std::string(), LinkHandle(6),
                        std::int64_t(0)}),
  };
}

TEST(MessageMutationDeathTest, FlippedAndTruncatedBodiesDecodeOrAssert) {
  sim::Rng rng(19);
  int cases = 0;
  for (const Message& seed : mutation_seeds()) {
    const Serialized s = serialize(seed);
    for (int n = 0; n < 40; ++n) {
      Bytes body = s.body;
      // Flip 1-3 bytes, truncate, or both.
      const std::uint64_t kind = rng.next_below(3);
      if (kind != 1) {
        for (std::uint64_t f = 0, k = 1 + rng.next_below(3); f < k; ++f) {
          body[rng.next_below(body.size())] ^=
              static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
      }
      if (kind != 0) body.resize(rng.next_below(body.size()));
      // An allocation exactly as long as the mutant: a read past its end
      // is then a read past the allocation, which ASan sees.
      const Bytes mutant(body.begin(), body.end());
      EXPECT_EXIT(
          {
            (void)deserialize(mutant, s.enclosures);
            std::_Exit(0);
          },
          decoded_or_asserted, "")
          << "seed '" << seed.op << "' mutant " << n;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 320);
}

}  // namespace
}  // namespace lynx
