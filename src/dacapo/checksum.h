// Checksum / cipher primitives backing the error-detection and encryption
// protocol mechanisms (paper §5.1: "the function error detection can be
// performed by mechanisms like parity bit, CRC16, CRC32, etc.").
//
// The hot primitives (CRC-32, XOR keystream) come in two tiers:
//
//  * a byte-at-a-time scalar reference (`Crc32Scalar`, `XorCipherScalar`)
//    that defines the semantics and anchors the equivalence tests, and
//  * wide kernels — slicing-by-8 CRC32, a hardware CRC32 path (PCLMULQDQ
//    folding on x86, the CRC32 instructions on ARMv8), and a
//    word-at-a-time keystream XOR — selected once at startup behind
//    `Crc32` / `XorCipher`.
//
// The hardware path is validated against slicing-by-8 on first use and
// disabled on mismatch, so a dispatch bug degrades to the portable kernel
// instead of corrupting traffic (DESIGN.md §12, SIMD dispatch policy).
#pragma once

#include <cstdint>
#include <span>

namespace cool::dacapo {

// Longitudinal parity over all octets (the paper's "parity bit" mechanism,
// widened to a byte so it is wire-representable on its own).
std::uint8_t ParityByte(std::span<const std::uint8_t> data) noexcept;

// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, MSB-first, no final XOR):
// slicing-by-8 over compile-time tables. The bitwise definition it must
// match lives in the tests as the reference.
std::uint16_t Crc16(std::span<const std::uint8_t> data) noexcept;

// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320): runtime-dispatched to
// the fastest kernel whose self-check passed on this machine.
std::uint32_t Crc32(std::span<const std::uint8_t> data) noexcept;

// Scalar reference (single-table byte-at-a-time) — the semantic anchor for
// the kernels below; also the "scalar" row of bench_mechanisms.
std::uint32_t Crc32Scalar(std::span<const std::uint8_t> data) noexcept;

// Slicing-by-8 (eight 256-entry tables, 8 input octets per step): the
// portable fast path.
std::uint32_t Crc32Slicing8(std::span<const std::uint8_t> data) noexcept;

// Hardware kernel: PCLMULQDQ folding (x86) or the ARMv8 CRC32 extension.
// Only callable when Crc32HwAvailable(); falls back to slicing-by-8 for
// short tails either way.
bool Crc32HwAvailable() noexcept;
std::uint32_t Crc32Hw(std::span<const std::uint8_t> data) noexcept;

// Symmetric keystream cipher (xorshift keystream seeded by `key`): stands in
// for the paper's en-/decryption protocol function. In-place; applying it
// twice with the same key restores the input. Dispatches to a
// word-at-a-time kernel (8 keystream octets applied per 64-bit XOR).
void XorCipher(std::span<std::uint8_t> data, std::uint64_t key) noexcept;

// Byte-at-a-time reference with identical output.
void XorCipherScalar(std::span<std::uint8_t> data,
                     std::uint64_t key) noexcept;

}  // namespace cool::dacapo
