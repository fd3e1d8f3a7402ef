// Block-partitioned columns. Compression schemes may differ block-to-block,
// which is exactly the situation the paper's adaptive VM must handle
// (specialized code is valid only while the scheme combination holds).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/compression.h"
#include "storage/vector.h"
#include "util/status.h"

namespace avm {

/// Default number of values per block.
constexpr uint32_t kDefaultBlockSize = 64 * 1024;

/// A compressed, block-partitioned column.
class Column {
 public:
  explicit Column(TypeId type, uint32_t block_size = kDefaultBlockSize)
      : type_(type), block_size_(block_size) {}

  TypeId type() const { return type_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_blocks() const { return blocks_.size(); }
  uint32_t block_size() const { return block_size_; }
  const Block& block(size_t i) const { return blocks_[i]; }

  /// Append `n` raw values, splitting into blocks and choosing a scheme per
  /// block automatically.
  Status AppendValues(const void* values, uint32_t n);

  /// Append `n` raw values as a single block with a forced scheme.
  Status AppendBlockWithScheme(Scheme scheme, const void* values, uint32_t n);

  /// Decode `len` values starting at global row `row` into `out`.
  Status Read(uint64_t row, uint32_t len, void* out) const;

  /// Compression scheme of the block containing global row `row`.
  Result<Scheme> SchemeAt(uint64_t row) const;

  /// Block containing `row`, plus the row's offset within it.
  Result<std::pair<const Block*, uint32_t>> BlockAt(uint64_t row) const;

  /// Total encoded payload bytes across blocks.
  size_t EncodedBytes() const;
  double CompressionRatio() const;

 private:
  TypeId type_;
  uint32_t block_size_;
  uint64_t num_rows_ = 0;
  std::vector<Block> blocks_;
};

/// Seekable block-at-a-time decoder for the streamed-scan path: decodes one
/// compressed block ("super-chunk") into an internal cache and serves
/// arbitrary [row, row+len) reads from it, re-decoding only on block
/// changes. Unlike Column::Read — which re-decodes the containing range on
/// every call — morsel-sized reads walking forward decode each block exactly
/// once; blocks_decoded() exposes the streaming cost (surfaced as
/// ExecReport::chunks_streamed).
class ColumnChunkCursor {
 public:
  /// Default-constructed cursors stream nothing until assigned.
  ColumnChunkCursor() = default;
  /// Stream from `column` (not owned; must outlive the cursor).
  explicit ColumnChunkCursor(const Column* column) : column_(column) {}

  /// Column this cursor streams from (null when default-constructed).
  const Column* column() const { return column_; }

  /// Decode `len` values starting at global row `row` into `out`, reporting
  /// the scheme of the block the read started in (so the VM can detect
  /// situation changes). Crossing a block boundary decodes the next block
  /// into the cache.
  Status ReadAt(uint64_t row, uint32_t len, void* out,
                Scheme* scheme = nullptr);

  /// Block decodes performed (cache misses) over the cursor's lifetime —
  /// one compressed super-chunk streamed per decode.
  uint64_t blocks_decoded() const { return blocks_decoded_; }

 private:
  Status EnsureBlockDecoded(size_t block_idx, uint64_t block_start);

  const Column* column_ = nullptr;
  size_t cached_block_ = SIZE_MAX;
  uint64_t cached_start_ = 0;   // global row of the cached block's first value
  std::vector<uint8_t> cache_;  // decoded current block
  uint64_t blocks_decoded_ = 0;
};

}  // namespace avm
