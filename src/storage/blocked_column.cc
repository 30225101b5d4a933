#include "storage/blocked_column.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/simd_hash.h"
#include "common/value_hash.h"
#include "storage/mapped_file.h"

namespace ndv {

namespace {

// Per-thread single-block decode caches, shared by every blocked column in
// the process. A cache entry is keyed by (column instance id, block), so a
// thread re-hashing inside one block (Algorithm L's steady state, or a
// slice walk) decodes it once; a different thread never observes another
// thread's scratch. Column ids are process-unique (monotone counter), so a
// recycled heap address can never revive a dead column's cache entry.
uint64_t NextColumnId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct Int64BlockCache {
  uint64_t column = 0;
  int64_t block = -1;
  std::vector<int64_t> values;
};

Int64BlockCache& ThreadInt64Cache() {
  static thread_local Int64BlockCache cache;
  return cache;
}

struct CodeBlockCache {
  uint64_t column = 0;
  int64_t block = -1;
  std::vector<int32_t> codes;
};

CodeBlockCache& ThreadCodeCache() {
  static thread_local CodeBlockCache cache;
  return cache;
}

// Calls fn(i, block) for every position i of the gather `rows`, where
// block = rows[i] / block_rows, with all positions of one block visited
// consecutively: an O(r + blocks) stable counting sort groups them first.
// Callers write out[i] in place, so the result equals a walk in gather
// order while the one-block decode cache decodes each touched block at most
// once. Scratch: an r-entry `order` and a (blocks + 1)-entry `start`.
template <typename Fn>
void ForEachByBlock(std::span<const int64_t> rows, int64_t block_rows,
                    size_t block_count, Fn&& fn) {
  // start[b] = first slot of block b in `order` after the prefix sum.
  std::vector<size_t> start(block_count + 1, 0);
  for (const int64_t row : rows) {
    const auto block = static_cast<size_t>(row / block_rows);
    NDV_DCHECK(0 <= row && block < block_count);
    ++start[block + 1];
  }
  for (size_t b = 1; b <= block_count; ++b) start[b] += start[b - 1];
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    order[start[static_cast<size_t>(rows[i] / block_rows)]++] = i;
  }
  for (const size_t i : order) fn(i, rows[i] / block_rows);
}

// Bounding byte range of blocks [first, last] (inclusive); the writer lays
// blocks out in offset order, but computing min/max keeps the advice
// correct for any validated directory.
void AdviseBlocks(const std::vector<PackBlockRef>& blocks, size_t first,
                  size_t last, bool sequential) {
  const uint8_t* lo = blocks[first].data;
  const uint8_t* hi = blocks[first].data + blocks[first].length;
  for (size_t b = first + 1; b <= last; ++b) {
    lo = std::min(lo, blocks[b].data);
    hi = std::max(hi, blocks[b].data + blocks[b].length);
  }
  if (sequential) {
    AdviseSequentialRange(lo, static_cast<size_t>(hi - lo));
  } else {
    AdviseWillNeedRange(lo, static_cast<size_t>(hi - lo));
  }
}

}  // namespace

// --- BlockedInt64Column. ---------------------------------------------------

BlockedInt64Column::BlockedInt64Column(int64_t rows, int64_t block_rows,
                                       std::vector<PackBlockRef> blocks,
                                       std::shared_ptr<const void> owner)
    : cache_id_(NextColumnId()),
      rows_(rows),
      block_rows_(block_rows),
      blocks_(std::move(blocks)),
      owner_(std::move(owner)) {
  NDV_CHECK_GE(block_rows_, 1);
  NDV_CHECK_GE(rows_, 0);
}

const int64_t* BlockedInt64Column::BlockValues(int64_t block) const {
  const PackBlockRef& blk = blocks_[static_cast<size_t>(block)];
  if (blk.codec == PackBlockCodec::kRaw) {
    // Raw payloads are 8-aligned in the file (validated at parse).
    return reinterpret_cast<const int64_t*>(blk.data);
  }
  Int64BlockCache& cache = ThreadInt64Cache();
  if (cache.column == cache_id_ && cache.block == block) {
    return cache.values.data();
  }
  cache.values.resize(static_cast<size_t>(blk.rows));
  DecodeInt64Block(blk.codec, blk.param, blk.rows, blk.data,
                   cache.values.data());
  cache.column = cache_id_;
  cache.block = block;
  return cache.values.data();
}

uint64_t BlockedInt64Column::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  const int64_t offset = row - block * block_rows_;
  return Hash64(static_cast<uint64_t>(BlockValues(block)[offset]));
}

void BlockedInt64Column::HashRange(std::span<const int64_t> rows,
                                   uint64_t* out) const {
  const auto hash_row = [&](size_t i, int64_t block) {
    NDV_DCHECK(0 <= rows[i] && rows[i] < rows_);
    const int64_t offset = rows[i] - block * block_rows_;
    out[i] = Hash64(static_cast<uint64_t>(BlockValues(block)[offset]));
  };
  ForEachByBlock(rows, block_rows_, blocks_.size(), hash_row);
}

void BlockedInt64Column::HashSlice(int64_t begin, int64_t end,
                                   uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    HashInt64Span(BlockValues(block) + offset, static_cast<size_t>(take),
                  out + (row - begin));
    row += take;
  }
}

std::string BlockedInt64Column::ValueToString(int64_t row) const {
  return std::to_string(ValueAt(row));
}

int64_t BlockedInt64Column::ValueAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return BlockValues(block)[row - block * block_rows_];
}

void BlockedInt64Column::CopyValues(int64_t begin, int64_t end,
                                    int64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    std::memcpy(out + (row - begin), BlockValues(block) + offset,
                static_cast<size_t>(take) * sizeof(int64_t));
    row += take;
  }
}

void BlockedInt64Column::PrepareFullScan() const {
  if (blocks_.empty()) return;
  AdviseBlocks(blocks_, 0, blocks_.size() - 1, /*sequential=*/true);
}

void BlockedInt64Column::PrefetchRows(int64_t begin, int64_t end) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  if (begin == end) return;
  const auto first = static_cast<size_t>(begin / block_rows_);
  const auto last = static_cast<size_t>((end - 1) / block_rows_);
  AdviseBlocks(blocks_, first, last, /*sequential=*/false);
}

// --- BlockedDoubleColumn. --------------------------------------------------

BlockedDoubleColumn::BlockedDoubleColumn(int64_t rows, int64_t block_rows,
                                         std::vector<PackBlockRef> blocks,
                                         std::shared_ptr<const void> owner)
    : rows_(rows),
      block_rows_(block_rows),
      blocks_(std::move(blocks)),
      owner_(std::move(owner)) {
  NDV_CHECK_GE(block_rows_, 1);
  NDV_CHECK_GE(rows_, 0);
#if NDV_DCHECK_ENABLED
  // The parser only admits raw double blocks, so every block aliases.
  for (const PackBlockRef& blk : blocks_) {
    NDV_DCHECK(blk.codec == PackBlockCodec::kRaw);
  }
#endif
}

const double* BlockedDoubleColumn::BlockValues(int64_t block) const {
  return reinterpret_cast<const double*>(
      blocks_[static_cast<size_t>(block)].data);
}

uint64_t BlockedDoubleColumn::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return HashDoubleValue(BlockValues(block)[row - block * block_rows_]);
}

void BlockedDoubleColumn::HashRange(std::span<const int64_t> rows,
                                    uint64_t* out) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    NDV_DCHECK(0 <= rows[i] && rows[i] < rows_);
    const int64_t block = rows[i] / block_rows_;
    out[i] = HashDoubleValue(BlockValues(block)[rows[i] - block * block_rows_]);
  }
}

void BlockedDoubleColumn::HashSlice(int64_t begin, int64_t end,
                                    uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    HashDoubleSpan(BlockValues(block) + offset, static_cast<size_t>(take),
                   out + (row - begin));
    row += take;
  }
}

std::string BlockedDoubleColumn::ValueToString(int64_t row) const {
  return std::to_string(ValueAt(row));
}

double BlockedDoubleColumn::ValueAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return BlockValues(block)[row - block * block_rows_];
}

void BlockedDoubleColumn::CopyValues(int64_t begin, int64_t end,
                                     double* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    std::memcpy(out + (row - begin), BlockValues(block) + offset,
                static_cast<size_t>(take) * sizeof(double));
    row += take;
  }
}

void BlockedDoubleColumn::PrepareFullScan() const {
  if (blocks_.empty()) return;
  AdviseBlocks(blocks_, 0, blocks_.size() - 1, /*sequential=*/true);
}

void BlockedDoubleColumn::PrefetchRows(int64_t begin, int64_t end) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  if (begin == end) return;
  const auto first = static_cast<size_t>(begin / block_rows_);
  const auto last = static_cast<size_t>((end - 1) / block_rows_);
  AdviseBlocks(blocks_, first, last, /*sequential=*/false);
}

// --- BlockedStringColumn. --------------------------------------------------

BlockedStringColumn::BlockedStringColumn(int64_t rows, int64_t block_rows,
                                         std::vector<PackBlockRef> blocks,
                                         std::span<const uint64_t> dict_offsets,
                                         const char* blob,
                                         std::shared_ptr<const void> owner)
    : cache_id_(NextColumnId()),
      rows_(rows),
      block_rows_(block_rows),
      blocks_(std::move(blocks)),
      dict_offsets_(dict_offsets),
      blob_(blob),
      owner_(std::move(owner)) {
  NDV_CHECK_GE(block_rows_, 1);
  NDV_CHECK_GE(rows_, 0);
  NDV_CHECK_GE(dict_offsets_.size(), 1u);
  const size_t dict_count = dict_offsets_.size() - 1;
  hashes_.reserve(dict_count);
  for (size_t i = 0; i < dict_count; ++i) {
    NDV_CHECK_LE(dict_offsets_[i], dict_offsets_[i + 1]);
    hashes_.push_back(HashBytes(
        {blob_ + dict_offsets_[i], dict_offsets_[i + 1] - dict_offsets_[i]}));
  }
}

const int32_t* BlockedStringColumn::BlockCodes(int64_t block) const {
  const PackBlockRef& blk = blocks_[static_cast<size_t>(block)];
  if (blk.codec == PackBlockCodec::kRaw) {
    // Raw code payloads are 4-aligned in the file (validated at parse).
    return reinterpret_cast<const int32_t*>(blk.data);
  }
  CodeBlockCache& cache = ThreadCodeCache();
  if (cache.column == cache_id_ && cache.block == block) {
    return cache.codes.data();
  }
  cache.codes.resize(static_cast<size_t>(blk.rows));
  DecodeCodesBlock(blk.codec, blk.param, blk.rows, blk.data,
                   cache.codes.data());
  cache.column = cache_id_;
  cache.block = block;
  return cache.codes.data();
}

uint64_t BlockedStringColumn::HashAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  const int32_t code = BlockCodes(block)[row - block * block_rows_];
  return hashes_[static_cast<size_t>(code)];
}

void BlockedStringColumn::HashRange(std::span<const int64_t> rows,
                                    uint64_t* out) const {
  const auto hash_row = [&](size_t i, int64_t block) {
    NDV_DCHECK(0 <= rows[i] && rows[i] < rows_);
    const int32_t code = BlockCodes(block)[rows[i] - block * block_rows_];
    out[i] = hashes_[static_cast<size_t>(code)];
  };
  ForEachByBlock(rows, block_rows_, blocks_.size(), hash_row);
}

void BlockedStringColumn::HashSlice(int64_t begin, int64_t end,
                                    uint64_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    HashLookupCodes32(BlockCodes(block) + offset, hashes_.data(),
                      static_cast<size_t>(take), out + (row - begin));
    row += take;
  }
}

std::string BlockedStringColumn::ValueToString(int64_t row) const {
  return std::string(DictionaryEntry(CodeAt(row)));
}

int32_t BlockedStringColumn::CodeAt(int64_t row) const {
  NDV_DCHECK(0 <= row && row < rows_);
  const int64_t block = row / block_rows_;
  return BlockCodes(block)[row - block * block_rows_];
}

void BlockedStringColumn::CopyCodes(int64_t begin, int64_t end,
                                    int32_t* out) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  int64_t row = begin;
  while (row < end) {
    const int64_t block = row / block_rows_;
    const int64_t block_begin = block * block_rows_;
    const int64_t offset = row - block_begin;
    const int64_t block_end =
        block_begin + blocks_[static_cast<size_t>(block)].rows;
    const int64_t take = std::min(end, block_end) - row;
    std::memcpy(out + (row - begin), BlockCodes(block) + offset,
                static_cast<size_t>(take) * sizeof(int32_t));
    row += take;
  }
}

void BlockedStringColumn::PrepareFullScan() const {
  if (blocks_.empty()) return;
  AdviseBlocks(blocks_, 0, blocks_.size() - 1, /*sequential=*/true);
}

void BlockedStringColumn::PrefetchRows(int64_t begin, int64_t end) const {
  NDV_DCHECK(0 <= begin && begin <= end && end <= rows_);
  if (begin == end) return;
  const auto first = static_cast<size_t>(begin / block_rows_);
  const auto last = static_cast<size_t>((end - 1) / block_rows_);
  AdviseBlocks(blocks_, first, last, /*sequential=*/false);
}

}  // namespace ndv
