// Unit tests for the byte codec every LYNX layout is written through.
#include "lynx/codec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lynx::codec {
namespace {

using Bytes = std::vector<std::uint8_t>;

TEST(CodecTest, EveryFieldWidthWritesLittleEndian) {
  const Bytes out = Writer(1 + 4 + 8)
                        .u8(0xAB)
                        .u32(0x01020304u)
                        .u64(0x0102030405060708ull)
                        .finish();
  EXPECT_EQ(out, (Bytes{0xAB, 4, 3, 2, 1, 8, 7, 6, 5, 4, 3, 2, 1}));
}

TEST(CodecTest, BlobIsALengthWordThenTheBytes) {
  const Bytes out = Writer(4 + 2 + 1)
                        .blob(std::string("hi"))
                        .bytes(Bytes{7})
                        .finish();
  EXPECT_EQ(out, (Bytes{2, 0, 0, 0, 'h', 'i', 7}));
}

TEST(CodecTest, ReaderReadsWhatTheWriterWrote) {
  const Bytes in = Writer(1 + 4 + 8 + 4 + 3 + 2)
                       .u8(0xFE)
                       .u32(0xDEADBEEFu)
                       .u64(0x8000000000000001ull)
                       .blob(Bytes{1, 2, 3})
                       .bytes(Bytes{4, 5})
                       .finish();
  Reader r(in);
  EXPECT_EQ(r.u8(), 0xFE);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x8000000000000001ull);
  const auto blob = r.blob();
  EXPECT_EQ(Bytes(blob.begin(), blob.end()), (Bytes{1, 2, 3}));
  // The blob is read in place, not copied.
  EXPECT_EQ(blob.data(), in.data() + 1 + 4 + 8 + 4);
  EXPECT_EQ(r.remaining(), 2u);
  const auto rest = r.rest();
  EXPECT_EQ(Bytes(rest.begin(), rest.end()), (Bytes{4, 5}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.rest().empty());
}

TEST(CodecDeathTest, AWriterThatDoesNotFillItsBufferIsCaught) {
  EXPECT_DEATH((void)Writer(5).u32(1).finish(),
               "LYNX layout does not fill its buffer");
  EXPECT_TRUE(Writer(0).finish().empty());
}

TEST(CodecDeathTest, AWriterThatOverrunsItsBufferIsCaught) {
  EXPECT_DEATH((void)Writer(3).u32(1), "LYNX layout overflows its buffer");
  EXPECT_DEATH((void)Writer(4).u8(1).u32(1),
               "LYNX layout overflows its buffer");
  EXPECT_DEATH((void)Writer(5).blob(Bytes{1, 2}),
               "LYNX layout overflows its buffer");
}

TEST(CodecDeathTest, EveryReadPastTheEndIsTruncated) {
  const Bytes three{1, 2, 3};
  const Bytes seven{1, 2, 3, 4, 5, 6, 7};
  const Bytes short_blob{5, 0, 0, 0, 1, 2, 3, 4};  // says 5, holds 4
  EXPECT_DEATH((void)Reader(Bytes{}).u8(), "truncated LYNX message");
  EXPECT_DEATH((void)Reader(three).u32(), "truncated LYNX message");
  EXPECT_DEATH((void)Reader(seven).u64(), "truncated LYNX message");
  EXPECT_DEATH((void)Reader(three).bytes(4), "truncated LYNX message");
  EXPECT_DEATH((void)Reader(three).blob(), "truncated LYNX message");
  EXPECT_DEATH((void)Reader(short_blob).blob(), "truncated LYNX message");
  // A read that fits, then one that does not.
  EXPECT_DEATH(
      {
        Reader r(seven);
        (void)r.u32();
        (void)r.u32();
      },
      "truncated LYNX message");
}

}  // namespace
}  // namespace lynx::codec
