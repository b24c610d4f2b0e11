#include "dacapo/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define COOL_CRC32_PCLMUL 1
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define COOL_CRC32_ARM 1
#endif

namespace cool::dacapo {

std::uint8_t ParityByte(std::span<const std::uint8_t> data) noexcept {
  std::uint8_t p = 0;
  for (std::uint8_t b : data) p ^= b;
  return p;
}

namespace {

// CRC-16/CCITT-FALSE slicing tables (MSB-first): t[0][i] is the CRC of
// octet i; t[k][i] advances it through k more zero octets, so eight
// lookups retire eight input octets per step. Built at compile time: the
// data path has no first-call initialisation.
struct Crc16Tables {
  std::uint16_t t[8][256];
};

constexpr Crc16Tables MakeCrc16Tables() {
  Crc16Tables c{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t r = i << 8;
    for (int k = 0; k < 8; ++k) {
      r = (r & 0x8000) != 0 ? (r << 1) ^ 0x1021 : r << 1;
    }
    c.t[0][i] = static_cast<std::uint16_t>(r);
  }
  for (int s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = c.t[s - 1][i];
      c.t[s][i] = static_cast<std::uint16_t>((prev << 8) ^
                                             c.t[0][prev >> 8]);
    }
  }
  return c;
}

constexpr Crc16Tables kCrc16 = MakeCrc16Tables();

}  // namespace

std::uint16_t Crc16(std::span<const std::uint8_t> data) noexcept {
  const auto& t = kCrc16.t;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFF;
  while (n >= 8) {
    crc = t[7][p[0] ^ (crc >> 8)] ^ t[6][p[1] ^ (crc & 0xFF)] ^ t[5][p[2]] ^
          t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = ((crc << 8) & 0xFFFF) ^ t[0][(crc >> 8) ^ *p++];
  }
  return static_cast<std::uint16_t>(crc);
}

namespace {

constexpr bool kBigEndian = __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__;

// Alignment-safe little-endian word loads: memcpy compiles to a plain
// (unaligned-tolerant) load on every target we build for, without the UB
// of a misaligned pointer cast. checksum.cc is rule-2-allowlisted for
// exactly these kernels (scripts/check_invariants.py).
inline std::uint32_t LoadLe32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (kBigEndian) v = __builtin_bswap32(v);
  return v;
}

// Eight slicing tables: t[0] is the classic byte-at-a-time table; t[k]
// advances a byte seen k positions earlier through k additional zero
// bytes, so eight lookups retire eight input octets per step.
struct Crc32Tables {
  std::uint32_t t[8][256];
};

const Crc32Tables& SlicingTables() noexcept {
  static const Crc32Tables tables = [] {
    Crc32Tables tb{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tb.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = tb.t[k - 1][i];
        tb.t[k][i] = (prev >> 8) ^ tb.t[0][prev & 0xFF];
      }
    }
    return tb;
  }();
  return tables;
}

// All Update kernels take and return the raw CRC state (pre/post inversion
// is the public wrappers' job), so they compose for hardware-head +
// scalar-tail splits.
std::uint32_t ScalarUpdate(const std::uint8_t* p, std::size_t n,
                           std::uint32_t c) noexcept {
  const auto& t = SlicingTables().t;
  for (std::size_t i = 0; i < n; ++i) {
    c = t[0][(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

std::uint32_t Slicing8Update(const std::uint8_t* p, std::size_t n,
                             std::uint32_t c) noexcept {
  const auto& t = SlicingTables().t;
  while (n >= 8) {
    const std::uint32_t lo = c ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if defined(COOL_CRC32_PCLMUL)

// CRC-32 (IEEE, reflected) via PCLMULQDQ carry-less-multiply folding — the
// zlib/Chromium crc32_simd scheme: fold four 128-bit lanes per 64-byte
// block with k1/k2, collapse lanes with k3/k4, reduce 128 -> 64 bits with
// k5, then Barrett-reduce to the 32-bit remainder. Requires n >= 64 and
// n % 16 == 0; the dispatcher feeds tails to slicing-by-8.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t PclmulBlocks(
    const std::uint8_t* buf, std::size_t len, std::uint32_t crc) noexcept {
  const __m128i k1k2 =
      _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // x^(4*128+64), x^(4*128)
  const __m128i k3k4 =
      _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // x^(128+64), x^128
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);       // x^64
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x0 = k1k2;
  buf += 64;
  len -= 64;

  while (len >= 64) {
    __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    __m128i x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    __m128i x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    __m128i x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x1 = _mm_xor_si128(
        _mm_xor_si128(x1, x5),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00)));
    x2 = _mm_xor_si128(
        _mm_xor_si128(x2, x6),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10)));
    x3 = _mm_xor_si128(
        _mm_xor_si128(x3, x7),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20)));
    x4 = _mm_xor_si128(
        _mm_xor_si128(x4, x8),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30)));
    buf += 64;
    len -= 64;
  }

  // Collapse the four lanes into one 128-bit accumulator.
  x0 = k3k4;
  __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  while (len >= 16) {
    x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf));
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
    buf += 16;
    len -= 16;
  }

  // Fold 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x3 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = k5;
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, x3);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to the 32-bit remainder.
  x0 = poly;
  x2 = _mm_and_si128(x1, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, x3);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool HwProbe() noexcept {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

std::uint32_t HwUpdate(const std::uint8_t* p, std::size_t n,
                       std::uint32_t c) noexcept {
  if (n >= 64) {
    const std::size_t chunk = n & ~static_cast<std::size_t>(15);
    c = PclmulBlocks(p, chunk, c);
    p += chunk;
    n -= chunk;
  }
  return Slicing8Update(p, n, c);
}

#elif defined(COOL_CRC32_ARM)

bool HwProbe() noexcept { return true; }  // guaranteed by __ARM_FEATURE_CRC32

std::uint32_t HwUpdate(const std::uint8_t* p, std::size_t n,
                       std::uint32_t c) noexcept {
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (kBigEndian) w = __builtin_bswap64(w);
    c = __crc32d(c, w);
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = __crc32b(c, *p++);
  return c;
}

#else

bool HwProbe() noexcept { return false; }

std::uint32_t HwUpdate(const std::uint8_t* p, std::size_t n,
                       std::uint32_t c) noexcept {
  return Slicing8Update(p, n, c);
}

#endif

using Crc32Fn = std::uint32_t (*)(const std::uint8_t*, std::size_t,
                                  std::uint32_t) noexcept;

// Picks the kernel once per process. The hardware path must reproduce
// slicing-by-8 on a self-check sweep (several lengths and alignments over
// a pseudo-random buffer) before it is trusted; a mismatch means a broken
// fold-constant table or an emulator without the instruction semantics we
// expect, and the portable kernel takes over silently.
Crc32Fn PickCrc32() noexcept {
  if (!HwProbe()) return &Slicing8Update;
  std::uint8_t buf[512];
  std::uint32_t lcg = 0x1234567u;
  for (auto& b : buf) {
    lcg = lcg * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(lcg >> 24);
  }
  for (std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    for (std::size_t len :
         {std::size_t{64}, std::size_t{96}, std::size_t{251},
          std::size_t{sizeof buf} - offset}) {
      const std::uint32_t want = Slicing8Update(buf + offset, len, 0xFFFFFFFFu);
      if (HwUpdate(buf + offset, len, 0xFFFFFFFFu) != want) {
        return &Slicing8Update;
      }
    }
  }
  return &HwUpdate;
}

}  // namespace

std::uint32_t Crc32Scalar(std::span<const std::uint8_t> data) noexcept {
  return ~ScalarUpdate(data.data(), data.size(), 0xFFFFFFFFu);
}

std::uint32_t Crc32Slicing8(std::span<const std::uint8_t> data) noexcept {
  return ~Slicing8Update(data.data(), data.size(), 0xFFFFFFFFu);
}

bool Crc32HwAvailable() noexcept {
  static const bool available = HwProbe();
  return available;
}

std::uint32_t Crc32Hw(std::span<const std::uint8_t> data) noexcept {
  return ~HwUpdate(data.data(), data.size(), 0xFFFFFFFFu);
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) noexcept {
  static const Crc32Fn fn = PickCrc32();
  return ~fn(data.data(), data.size(), 0xFFFFFFFFu);
}

namespace {

constexpr std::uint64_t kXorSeedMix = 0x2545F4914F6CDD1DULL;

inline std::uint64_t XorShiftStep(std::uint64_t s) noexcept {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

void XorCipherScalar(std::span<std::uint8_t> data,
                     std::uint64_t key) noexcept {
  // xorshift64 keystream; one state step yields 8 keystream octets.
  std::uint64_t state = key ^ kXorSeedMix;
  std::size_t i = 0;
  while (i < data.size()) {
    state = XorShiftStep(state);
    std::uint64_t ks = state;
    for (int k = 0; k < 8 && i < data.size(); ++k, ++i) {
      data[i] ^= static_cast<std::uint8_t>(ks);
      ks >>= 8;
    }
  }
}

void XorCipher(std::span<std::uint8_t> data, std::uint64_t key) noexcept {
  // Word-at-a-time: the keystream octets are the state low-byte-first, so
  // on a little-endian host one 64-bit XOR applies a whole state step; big
  // endian swaps the keystream word, not the data.
  std::uint64_t state = key ^ kXorSeedMix;
  std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    state = XorShiftStep(state);
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (kBigEndian) {
      w ^= __builtin_bswap64(state);
    } else {
      w ^= state;
    }
    std::memcpy(p, &w, sizeof w);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    state = XorShiftStep(state);
    std::uint64_t ks = state;
    while (n-- > 0) {
      *p++ ^= static_cast<std::uint8_t>(ks);
      ks >>= 8;
    }
  }
}

}  // namespace cool::dacapo
