// Bit-packing of unsigned values at arbitrary widths (0..64 bits).
// Used by the FOR, Dict and Delta compression schemes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bits.h"

namespace avm {

/// Write `width` low bits of `v` at bit offset `bitpos` of `dst`.
/// `dst` must be zero-initialized over the touched range.
inline void WriteBits(uint8_t* dst, size_t bitpos, uint64_t v, uint32_t width) {
  if (width == 0) return;
  if (width < 64) v &= (uint64_t{1} << width) - 1;
  size_t byte = bitpos >> 3;
  unsigned shift = static_cast<unsigned>(bitpos & 7);
  dst[byte] |= static_cast<uint8_t>(v << shift);
  unsigned written = 8 - shift;
  while (written < width) {
    dst[++byte] |= static_cast<uint8_t>(v >> written);
    written += 8;
  }
}

/// Read `width` bits at bit offset `bitpos` of `src`, one byte at a time,
/// touching only the bytes the field occupies. UnpackRange's fallback for
/// payload tails and wide fields, and its reference in tests.
inline uint64_t ReadBits(const uint8_t* src, size_t bitpos, uint32_t width) {
  if (width == 0) return 0;
  size_t byte = bitpos >> 3;
  unsigned shift = static_cast<unsigned>(bitpos & 7);
  uint64_t v = src[byte] >> shift;
  unsigned got = 8 - shift;
  while (got < width) {
    v |= static_cast<uint64_t>(src[++byte]) << got;
    got += 8;
  }
  return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
}

/// Bytes needed to bit-pack n values at `width` bits (+1 slack byte). The
/// decoders never rely on the slack: UnpackRange bounds its 8-byte loads by
/// the payload length it is given.
inline size_t BitPackedBytes(size_t n, uint32_t width) {
  return (n * width + 7) / 8 + 1;
}

/// Append `n` values of `width` bits each to `out`.
inline void BitPack(const uint64_t* values, size_t n, uint32_t width,
                    std::vector<uint8_t>* out) {
  if (width == 0) return;  // all zeros: nothing stored
  const size_t base = out->size();
  out->resize(base + BitPackedBytes(n, width), 0);
  uint8_t* dst = out->data() + base;
  for (size_t i = 0; i < n; ++i) WriteBits(dst, i * width, values[i], width);
}

/// Widest field the word-at-a-time path decodes: a field starts at most 7
/// bits into its first byte, so `width` + 7 bits must fit one 8-byte load.
constexpr uint32_t kMaxWordUnpackWidth = 56;

/// Word-at-a-time range-unpack kernel: calls `emit(i, v)` for i in [0, n)
/// with v the `width`-bit field at value index `first + i` of the packed
/// payload `src`, which is `payload_bytes` long. Every decoder of the FOR,
/// Dict and Delta schemes goes through here.
///
/// For widths <= kMaxWordUnpackWidth each value costs one unaligned 8-byte
/// load plus a shift and a mask — but only while that 8-byte window lies
/// inside [src, src + payload_bytes); the values at the payload's end, and
/// every value of a wider field, go through ReadBits, which touches only the
/// bytes the field occupies. So the kernel never reads past the payload and
/// needs no slack beyond it. (Big-endian hosts take ReadBits throughout.)
template <typename Emit>
inline void UnpackRange(const uint8_t* src, size_t payload_bytes, size_t first,
                        size_t n, uint32_t width, Emit&& emit) {
  if (width == 0) {
    for (size_t i = 0; i < n; ++i) emit(i, uint64_t{0});
    return;
  }
  size_t i = 0;
  if (std::endian::native == std::endian::little &&
      width <= kMaxWordUnpackWidth && payload_bytes >= 8) {
    // Value j's window [j*width/8, j*width/8 + 8) is in bounds iff
    // j*width < (payload_bytes - 7) * 8; the bound is monotone in j.
    const size_t word_end = ((payload_bytes - 7) * 8 + width - 1) / width;
    const size_t fast_n = word_end > first ? std::min(n, word_end - first) : 0;
    const uint64_t mask = (uint64_t{1} << width) - 1;
    size_t bitpos = first * width;
    for (; i < fast_n; ++i, bitpos += width) {
      uint64_t word;
      std::memcpy(&word, src + (bitpos >> 3), sizeof(word));
      emit(i, (word >> (bitpos & 7)) & mask);
    }
  }
  for (; i < n; ++i) emit(i, ReadBits(src, (first + i) * width, width));
}

/// Decode `n` values of `width` bits from the `payload_bytes`-long packed
/// payload `src`, starting at value `first`.
inline void BitUnpackAt(const uint8_t* src, size_t payload_bytes, size_t first,
                        size_t n, uint32_t width, uint64_t* out) {
  UnpackRange(src, payload_bytes, first, n, width,
              [out](size_t i, uint64_t v) { out[i] = v; });
}

inline void BitUnpack(const uint8_t* src, size_t payload_bytes, size_t n,
                      uint32_t width, uint64_t* out) {
  BitUnpackAt(src, payload_bytes, 0, n, width, out);
}

/// Zigzag-encode a signed value into unsigned (small magnitudes → small).
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace avm
