#ifndef NDV_STORAGE_NDVPACK_H_
#define NDV_STORAGE_NDVPACK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/mapped_file.h"
#include "table/table.h"

namespace ndv {

// ndvpack — the library's binary columnar interchange format. A packed
// table opens by mmap with no copy: Int64/Double columns are raw
// little-endian arrays read in place, String columns are dictionary-encoded
// (int32 code array + offset-indexed UTF-8 blob). A v1 image loads as the
// same blocked columns a v2 image does (storage/blocked_column.h), cut into
// raw blocks that alias the arrays, so both formats share one read path.
// Estimates over a loaded table are bit-identical to the heap-column path
// because the blocked columns reuse the exact same hash kernels (Hash64 /
// HashDoubleValue / HashBytes over identical bytes).
//
// Wire layout (all integers little-endian; DESIGN.md §12):
//
//   [ 0..8)   magic "NDVPACK1"
//   [ 8..12)  uint32 version (currently 1)
//   [12..16)  uint32 column_count
//   [16..24)  uint64 row_count
//   [24..32)  uint64 directory_offset
//   [32..40)  uint64 directory_length
//   [40..)    payload blobs, each 8-byte aligned:
//               int64/double column: row_count x 8-byte values
//               string column: row_count x int32 codes,
//                              (dict_count + 1) x uint64 offsets
//                              (relative to the blob, offsets[0] == 0,
//                              non-decreasing, last == blob_length),
//                              blob bytes
//   directory_offset ..        per-column entries, parsed sequentially:
//     uint32 name_length, name bytes,
//     uint32 type (0 = int64, 1 = double, 2 = string),
//     int64/double: uint64 values_offset
//     string:       uint64 codes_offset, uint64 dict_count,
//                   uint64 dict_offsets_offset, uint64 dict_blob_offset,
//                   uint64 dict_blob_length
//   [size-8..size) uint64 Checksum64 (common/file_io.h) of bytes
//                  [0, size - 8)
//
// The deserializer fully validates before any column is materialized:
// header magic/version, checksum, every offset/length in bounds and
// aligned, every string code within its dictionary, dictionary offsets
// monotone. Malformed input yields a Status (never a crash or over-read) —
// fuzz/fuzz_ndvpack.cc holds that line.

inline constexpr std::string_view kPackMagic = "NDVPACK1";
inline constexpr uint32_t kPackVersion = 1;

// Zero-copy views into one validated pack image. Spans point into the
// parsed buffer; they are valid only while that buffer lives.
struct PackColumnView {
  std::string_view name;
  ColumnType type = ColumnType::kInt64;

  std::span<const int64_t> int64_values;   // type == kInt64
  std::span<const double> double_values;   // type == kDouble

  // type == kString: row codes, dictionary entry i spans
  // dict_blob[dict_offsets[i], dict_offsets[i + 1]).
  std::span<const int32_t> codes;
  std::span<const uint64_t> dict_offsets;  // dict_count + 1 entries
  const char* dict_blob = nullptr;
  uint64_t dict_count = 0;
};

struct PackView {
  uint64_t row_count = 0;
  std::vector<PackColumnView> columns;
};

// Serializes `table` into one ndvpack v1 image.
std::string SerializePack(const Table& table);

// Serializes `table` to `path`. Overwrites an existing file. Writes the
// current default format — ndvpack v2 with auto codec selection
// (storage/pack_writer.h); use WritePackFileV1 (or WritePackFileV2 with
// explicit options) to pin a format.
Status WritePackFile(const Table& table, const std::string& path);

// Serializes `table` to `path` in the v1 (uncompressed, non-blocked)
// format. v1 files remain fully readable; this writer produces the v1
// images that the compatibility tests and `ndv_pack --v1` rely on.
Status WritePackFileV1(const Table& table, const std::string& path);

// Parses and fully validates one ndvpack image. `bytes.data()` must be
// 8-byte aligned (mmap and malloc'd buffers both are); the views index
// into `bytes` and share its lifetime.
StatusOr<PackView> ParsePack(std::span<const uint8_t> bytes);

// Builds a Table of zero-copy blocked columns over `view`: each array is
// cut into kDefaultPackBlockRows-row raw blocks aliasing the buffer (the
// last block may be partial), the shape of a raw-codec v2 column. Every
// column retains `owner`, so the Table may outlive the caller's reference
// to the backing buffer but never the buffer itself.
Table TableFromPack(const PackView& view, std::shared_ptr<const void> owner);

// Maps `path` and returns its table, dispatching on the magic: v1 images
// go through ParsePack and TableFromPack, v2 images through
// storage/pack_reader.h; both yield blocked columns. This is the whole
// "ingest" step for packed data.
StatusOr<Table> OpenPackFile(const std::string& path);

// True when `head` begins with either ndvpack magic — v1 "NDVPACK1" or v2
// "NDVPACK2" (used by the transparent loader to pick the pack path over
// CSV without trusting file extensions).
bool StartsWithPackMagic(std::string_view head);

}  // namespace ndv

#endif  // NDV_STORAGE_NDVPACK_H_
