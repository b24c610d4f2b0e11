#include "dacapo/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cool::dacapo {
namespace {

TEST(ParityTest, EmptyIsZero) {
  EXPECT_EQ(ParityByte({}), 0);
}

TEST(ParityTest, XorOfAllBytes) {
  const std::vector<std::uint8_t> data = {0x01, 0x02, 0x04};
  EXPECT_EQ(ParityByte(data), 0x07);
}

TEST(ParityTest, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data = {1, 2, 3, 4};
  const std::uint8_t before = ParityByte(data);
  data[2] ^= 0x10;
  EXPECT_NE(ParityByte(data), before);
}

TEST(ParityTest, MissesCompensatingFlips) {
  // The known weakness of parity: two identical flips cancel out. Pinned
  // here because it motivates CRC mechanisms in the configuration manager.
  std::vector<std::uint8_t> data = {1, 2, 3, 4};
  const std::uint8_t before = ParityByte(data);
  data[0] ^= 0x10;
  data[1] ^= 0x10;
  EXPECT_EQ(ParityByte(data), before);
}

TEST(Crc16Test, KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
  const std::string s = "123456789";
  EXPECT_EQ(Crc16({reinterpret_cast<const std::uint8_t*>(s.data()),
                   s.size()}),
            0x29B1);
}

TEST(Crc16Test, EmptyIsInit) {
  EXPECT_EQ(Crc16({}), 0xFFFF);
}

// The bit-at-a-time definition of CRC-16/CCITT-FALSE: the semantic anchor
// the slicing-by-8 kernel must reproduce on every input.
std::uint16_t Crc16Reference(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t b : data) {
    crc ^= static_cast<std::uint16_t>(b) << 8;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

TEST(Crc16Test, MatchesReferenceEveryShortLengthAndOffset) {
  // Lengths 0..300 cover the byte-wise tail, exact multiples of the 8-octet
  // step, and every mix of the two; offsets 0..8 cover every alignment.
  Rng rng(20261019);
  std::vector<std::uint8_t> buf(8 + 300);
  for (auto& b : buf) b = rng.NextByte();
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> s{buf.data() + offset, len};
      ASSERT_EQ(Crc16(s), Crc16Reference(s))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc16Test, MatchesReferenceOnLargeBuffers) {
  Rng rng(7);
  for (std::size_t len : {std::size_t{16} * 1024, std::size_t{64} * 1024}) {
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = rng.NextByte();
    EXPECT_EQ(Crc16(buf), Crc16Reference(buf)) << "len=" << len;
  }
}

TEST(Crc16Test, MatchesReferenceOnConstantBuffers) {
  // All-zero and all-ones inputs drive the table indices to 0x00 and 0xFF
  // on every step, the edges a seeded buffer only visits by chance.
  for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    for (std::size_t len : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{9}, std::size_t{64},
                            std::size_t{16} * 1024 + 3}) {
      const std::vector<std::uint8_t> buf(len, fill);
      EXPECT_EQ(Crc16(buf), Crc16Reference(buf))
          << "fill=" << int{fill} << " len=" << len;
    }
  }
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(s.data()),
                   s.size()}),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, DetectsCompensatingFlipsParityMisses) {
  std::vector<std::uint8_t> data = {1, 2, 3, 4};
  const std::uint32_t before = Crc32(data);
  data[0] ^= 0x10;
  data[1] ^= 0x10;
  EXPECT_NE(Crc32(data), before);
}

TEST(CrcPropertyTest, RandomCorruptionDetected) {
  Rng rng(123);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::uint8_t> data(64);
    for (auto& b : data) b = rng.NextByte();
    const std::uint32_t crc32 = Crc32(data);
    const std::uint16_t crc16 = Crc16(data);
    // Flip one random bit.
    data[rng.NextBelow(64)] ^= static_cast<std::uint8_t>(
        1u << rng.NextBelow(8));
    EXPECT_NE(Crc32(data), crc32);
    EXPECT_NE(Crc16(data), crc16);
  }
}

// --- Kernel equivalence sweeps ---------------------------------------
// The vectorized kernels (slicing-by-8, hardware CRC, wide XOR) must be
// bit-identical to the scalar references for every length 0..4KB and every
// alignment 0..15 — the sweep runs under ASan+UBSan in CI, which also
// proves the word-at-a-time loads never read out of bounds.

class KernelSweep {
 public:
  KernelSweep() : buf_(kAlignMax + kLenMax) {
    Rng rng(20260809);
    for (auto& b : buf_) b = rng.NextByte();
  }

  template <typename Fn>
  void ForEachSlice(Fn&& fn) const {
    for (std::size_t align = 0; align < kAlignMax; ++align) {
      for (std::size_t len = 0; len <= 256; ++len) fn(align, len);
      for (std::size_t len = 257; len <= kLenMax; len += 37) fn(align, len);
    }
  }

  std::span<const std::uint8_t> Slice(std::size_t align,
                                      std::size_t len) const {
    return {buf_.data() + align, len};
  }

  static constexpr std::size_t kAlignMax = 16;
  static constexpr std::size_t kLenMax = 4096;

 private:
  std::vector<std::uint8_t> buf_;
};

TEST(Crc32KernelTest, Slicing8MatchesScalarAllSizesAndAlignments) {
  const KernelSweep sweep;
  sweep.ForEachSlice([&](std::size_t align, std::size_t len) {
    const auto s = sweep.Slice(align, len);
    ASSERT_EQ(Crc32Slicing8(s), Crc32Scalar(s))
        << "align=" << align << " len=" << len;
  });
}

TEST(Crc32KernelTest, HardwareMatchesScalarAllSizesAndAlignments) {
  if (!Crc32HwAvailable()) {
    GTEST_SKIP() << "no CRC32 hardware path on this machine";
  }
  const KernelSweep sweep;
  sweep.ForEachSlice([&](std::size_t align, std::size_t len) {
    const auto s = sweep.Slice(align, len);
    ASSERT_EQ(Crc32Hw(s), Crc32Scalar(s))
        << "align=" << align << " len=" << len;
  });
}

TEST(Crc32KernelTest, DispatchedMatchesScalarAllSizesAndAlignments) {
  const KernelSweep sweep;
  sweep.ForEachSlice([&](std::size_t align, std::size_t len) {
    const auto s = sweep.Slice(align, len);
    ASSERT_EQ(Crc32(s), Crc32Scalar(s))
        << "align=" << align << " len=" << len;
  });
}

TEST(Crc32KernelTest, KnownVectorOnEveryKernel) {
  const std::string s = "123456789";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
  EXPECT_EQ(Crc32Scalar(bytes), 0xCBF43926u);
  EXPECT_EQ(Crc32Slicing8(bytes), 0xCBF43926u);
  if (Crc32HwAvailable()) {
    EXPECT_EQ(Crc32Hw(bytes), 0xCBF43926u);
  }
}

TEST(XorCipherKernelTest, WideMatchesScalarAllSizesAndAlignments) {
  const KernelSweep sweep;
  std::vector<std::uint8_t> wide;
  std::vector<std::uint8_t> scalar;
  sweep.ForEachSlice([&](std::size_t align, std::size_t len) {
    const auto s = sweep.Slice(align, len);
    wide.assign(s.begin(), s.end());
    scalar.assign(s.begin(), s.end());
    XorCipher(wide, 0x5EEDCAFEF00DULL);
    XorCipherScalar(scalar, 0x5EEDCAFEF00DULL);
    ASSERT_EQ(wide, scalar) << "align=" << align << " len=" << len;
    XorCipher(wide, 0x5EEDCAFEF00DULL);
    ASSERT_TRUE(std::equal(wide.begin(), wide.end(), s.begin()))
        << "round trip failed: align=" << align << " len=" << len;
  });
}

TEST(XorCipherTest, RoundTripRestoresPlaintext) {
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const std::vector<std::uint8_t> original = data;
  XorCipher(data, 0xDEADBEEF);
  EXPECT_NE(data, original);
  XorCipher(data, 0xDEADBEEF);
  EXPECT_EQ(data, original);
}

TEST(XorCipherTest, DifferentKeysProduceDifferentCiphertext) {
  std::vector<std::uint8_t> a(32, 0);
  std::vector<std::uint8_t> b(32, 0);
  XorCipher(a, 1);
  XorCipher(b, 2);
  EXPECT_NE(a, b);
}

TEST(XorCipherTest, WrongKeyDoesNotDecrypt) {
  std::vector<std::uint8_t> data(32, 0x55);
  const std::vector<std::uint8_t> original = data;
  XorCipher(data, 7);
  XorCipher(data, 8);
  EXPECT_NE(data, original);
}

TEST(XorCipherTest, EmptyAndTinyInputs) {
  std::vector<std::uint8_t> empty;
  XorCipher(empty, 1);  // must not crash
  std::vector<std::uint8_t> one = {0xAB};
  XorCipher(one, 1);
  XorCipher(one, 1);
  EXPECT_EQ(one[0], 0xAB);
}

}  // namespace
}  // namespace cool::dacapo
