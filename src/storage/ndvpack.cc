#include "storage/ndvpack.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "common/check.h"
#include "common/file_io.h"
#include "storage/blocked_column.h"
#include "storage/pack_codec.h"
#include "storage/pack_reader.h"
#include "storage/pack_writer.h"

namespace ndv {

namespace {

constexpr uint64_t kHeaderBytes = 40;
constexpr uint64_t kTrailerBytes = 8;
constexpr uint32_t kTypeInt64 = 0;
constexpr uint32_t kTypeDouble = 1;
constexpr uint32_t kTypeString = 2;

// Pads `payload` (which starts at file offset kHeaderBytes) to the next
// 8-byte file boundary and returns the file offset of the next byte.
uint64_t AlignPayload8(std::string& payload) {
  while ((kHeaderBytes + payload.size()) % 8 != 0) payload.push_back('\0');
  return kHeaderBytes + payload.size();
}

}  // namespace

bool StartsWithPackMagic(std::string_view head) {
  if (head.size() < kPackMagic.size()) return false;
  const std::string_view magic = head.substr(0, kPackMagic.size());
  return magic == kPackMagic || magic == kPackV2Magic;
}

// --------------------------------------------------------------------------
// Writer.

std::string SerializePack(const Table& table) {
  const auto row_count = static_cast<uint64_t>(table.NumRows());
  std::string payload;    // file bytes [kHeaderBytes, directory_offset)
  std::string directory;  // file bytes [directory_offset, checksum)

  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    const Column& column = table.column(c);
    const std::string& name = table.column_name(c);
    NDV_CHECK_LE(name.size(),
                 static_cast<size_t>(std::numeric_limits<uint32_t>::max()));
    PutString(&directory, name);

    // The writer accepts heap columns and the blocked columns that either
    // pack format loads as, so any loaded table repacks to v1.
    if (const auto* i64 = dynamic_cast<const Int64Column*>(&column)) {
      PutU32(&directory, kTypeInt64);
      const uint64_t offset = AlignPayload8(payload);
      payload.append(reinterpret_cast<const char*>(i64->values().data()),
                     row_count * sizeof(int64_t));
      PutU64(&directory, offset);
    } else if (const auto* dbl = dynamic_cast<const DoubleColumn*>(&column)) {
      PutU32(&directory, kTypeDouble);
      const uint64_t offset = AlignPayload8(payload);
      payload.append(reinterpret_cast<const char*>(dbl->values().data()),
                     row_count * sizeof(double));
      PutU64(&directory, offset);
    } else if (const auto* str = dynamic_cast<const StringColumn*>(&column)) {
      PutU32(&directory, kTypeString);
      const uint64_t codes_offset = AlignPayload8(payload);
      payload.append(reinterpret_cast<const char*>(str->codes().data()),
                     row_count * sizeof(int32_t));
      const uint64_t offsets_offset = AlignPayload8(payload);
      uint64_t blob_length = 0;
      for (const std::string& entry : str->dictionary()) {
        PutU64(&payload, blob_length);
        blob_length += entry.size();
      }
      PutU64(&payload, blob_length);
      const uint64_t blob_offset = kHeaderBytes + payload.size();
      for (const std::string& entry : str->dictionary()) {
        payload.append(entry);
      }
      PutU64(&directory, codes_offset);
      PutU64(&directory, static_cast<uint64_t>(str->dictionary_size()));
      PutU64(&directory, offsets_offset);
      PutU64(&directory, blob_offset);
      PutU64(&directory, blob_length);
    } else if (const auto* bi64 =
                   dynamic_cast<const BlockedInt64Column*>(&column)) {
      // Blocked columns copy out through a scratch buffer, which also
      // decodes compressed v2 blocks back to raw values.
      PutU32(&directory, kTypeInt64);
      const uint64_t offset = AlignPayload8(payload);
      std::vector<int64_t> values(row_count);
      bi64->CopyValues(0, static_cast<int64_t>(row_count), values.data());
      payload.append(reinterpret_cast<const char*>(values.data()),
                     row_count * sizeof(int64_t));
      PutU64(&directory, offset);
    } else if (const auto* bdbl =
                   dynamic_cast<const BlockedDoubleColumn*>(&column)) {
      PutU32(&directory, kTypeDouble);
      const uint64_t offset = AlignPayload8(payload);
      std::vector<double> values(row_count);
      bdbl->CopyValues(0, static_cast<int64_t>(row_count), values.data());
      payload.append(reinterpret_cast<const char*>(values.data()),
                     row_count * sizeof(double));
      PutU64(&directory, offset);
    } else if (const auto* bstr =
                   dynamic_cast<const BlockedStringColumn*>(&column)) {
      PutU32(&directory, kTypeString);
      const uint64_t codes_offset = AlignPayload8(payload);
      std::vector<int32_t> codes(row_count);
      bstr->CopyCodes(0, static_cast<int64_t>(row_count), codes.data());
      payload.append(reinterpret_cast<const char*>(codes.data()),
                     row_count * sizeof(int32_t));
      const uint64_t offsets_offset = AlignPayload8(payload);
      uint64_t blob_length = 0;
      const int64_t dict_count = bstr->dictionary_size();
      for (int64_t i = 0; i < dict_count; ++i) {
        PutU64(&payload, blob_length);
        blob_length += bstr->DictionaryEntry(static_cast<int32_t>(i)).size();
      }
      PutU64(&payload, blob_length);
      const uint64_t blob_offset = kHeaderBytes + payload.size();
      for (int64_t i = 0; i < dict_count; ++i) {
        payload.append(bstr->DictionaryEntry(static_cast<int32_t>(i)));
      }
      PutU64(&directory, codes_offset);
      PutU64(&directory, static_cast<uint64_t>(dict_count));
      PutU64(&directory, offsets_offset);
      PutU64(&directory, blob_offset);
      PutU64(&directory, blob_length);
    } else {
      NDV_CHECK_MSG(false, "SerializePack: unsupported column class (%s)",
                    std::string(ColumnTypeName(column.type())).c_str());
    }
  }

  const uint64_t directory_offset = AlignPayload8(payload);

  std::string out;
  out.reserve(kHeaderBytes + payload.size() + directory.size() +
              kTrailerBytes);
  out.append(kPackMagic);
  PutU32(&out, kPackVersion);
  PutU32(&out, static_cast<uint32_t>(table.NumColumns()));
  PutU64(&out, row_count);
  PutU64(&out, directory_offset);
  PutU64(&out, directory.size());
  NDV_CHECK_EQ(out.size(), kHeaderBytes);
  out.append(payload);
  out.append(directory);
  PutU64(&out, Checksum64(out));
  return out;
}

Status WritePackFile(const Table& table, const std::string& path) {
  // Default format: v2 with auto codec selection, streamed through the
  // bounded-memory writer (which carries its own temp + fsync + rename).
  return WritePackFileV2(table, path);
}

Status WritePackFileV1(const Table& table, const std::string& path) {
  // Write-temp + fsync + rename (common/file_io.h): a reader — or a crash
  // mid-write — never observes a half-written pack at `path`; it sees the
  // old file or the new one, both with intact trailers.
  return AtomicWriteFile(path, SerializePack(table));
}

// --------------------------------------------------------------------------
// Reader.

namespace {

// Validates one payload blob claim: `count` elements of `elem_bytes` each,
// starting at file offset `offset` with `alignment`, inside
// [kHeaderBytes, payload_end). All arithmetic is overflow-safe.
Status CheckBlob(uint64_t offset, uint64_t count, uint64_t elem_bytes,
                 uint64_t alignment, uint64_t payload_end, const char* what) {
  if (offset < kHeaderBytes || offset > payload_end) {
    return DataLossError("%s offset %llu outside payload [%llu, %llu)", what,
                         static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(kHeaderBytes),
                         static_cast<unsigned long long>(payload_end));
  }
  if (offset % alignment != 0) {
    return DataLossError("%s offset %llu not %llu-byte aligned", what,
                         static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(alignment));
  }
  if (elem_bytes != 0 && count > (payload_end - offset) / elem_bytes) {
    return DataLossError("%s overruns payload: %llu x %llu bytes at %llu",
                         what, static_cast<unsigned long long>(count),
                         static_cast<unsigned long long>(elem_bytes),
                         static_cast<unsigned long long>(offset));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<PackView> ParsePack(std::span<const uint8_t> bytes) {
  // Alignment of the buffer itself is the caller's contract (mmap pages and
  // malloc'd blocks both satisfy it); a violation is a programming error,
  // not bad input.
  NDV_CHECK(bytes.empty() ||
            reinterpret_cast<uintptr_t>(bytes.data()) % 8 == 0);
  const std::string_view image(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size());

  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return DataLossError("truncated pack: %zu bytes < minimum %llu",
                         bytes.size(),
                         static_cast<unsigned long long>(kHeaderBytes +
                                                         kTrailerBytes));
  }
  if (!StartsWithPackMagic(image)) {
    return InvalidArgumentError("not an ndvpack file (bad magic)");
  }

  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, bytes.data() + bytes.size() - kTrailerBytes,
              sizeof(stored_checksum));
  const uint64_t actual_checksum =
      Checksum64(image.substr(0, bytes.size() - kTrailerBytes));
  if (stored_checksum != actual_checksum) {
    return DataLossError("checksum mismatch: stored %016llx, computed %016llx",
                         static_cast<unsigned long long>(stored_checksum),
                         static_cast<unsigned long long>(actual_checksum));
  }

  ByteReader header(image.substr(kPackMagic.size()));
  uint32_t version = 0, column_count = 0;
  uint64_t row_count = 0, directory_offset = 0, directory_length = 0;
  // The cursor-advancing reads live outside the macro: a contract
  // condition must be effect-free (ndv-check-macro-side-effects).
  const bool header_complete =
      header.TakeU32(&version).ok() && header.TakeU32(&column_count).ok() &&
      header.TakeU64(&row_count).ok() &&
      header.TakeU64(&directory_offset).ok() &&
      header.TakeU64(&directory_length).ok();
  NDV_CHECK(header_complete);
  if (version != kPackVersion) {
    return InvalidArgumentError("unsupported pack version %u (have %u)",
                                version, kPackVersion);
  }

  const uint64_t payload_end = bytes.size() - kTrailerBytes;
  if (directory_offset < kHeaderBytes || directory_offset > payload_end ||
      directory_length > payload_end - directory_offset) {
    return DataLossError(
        "directory [%llu, +%llu) outside payload [%llu, %llu)",
        static_cast<unsigned long long>(directory_offset),
        static_cast<unsigned long long>(directory_length),
        static_cast<unsigned long long>(kHeaderBytes),
        static_cast<unsigned long long>(payload_end));
  }

  PackView view;
  view.row_count = row_count;
  view.columns.reserve(std::min<uint64_t>(column_count, 1024));
  ByteReader dir(image.substr(directory_offset, directory_length));
  const auto* base = bytes.data();

  for (uint32_t c = 0; c < column_count; ++c) {
    PackColumnView column;
    uint32_t name_length = 0, type = 0;
    if (!dir.TakeU32(&name_length).ok() ||
        !dir.TakeBytes(name_length, &column.name).ok() ||
        !dir.TakeU32(&type).ok()) {
      return DataLossError("directory truncated in column %u of %u", c,
                           column_count);
    }
    switch (type) {
      case kTypeInt64:
      case kTypeDouble: {
        uint64_t offset = 0;
        if (!dir.TakeU64(&offset).ok()) {
          return DataLossError("directory truncated in column %u of %u", c,
                               column_count);
        }
        NDV_RETURN_IF_ERROR(CheckBlob(offset, row_count, 8, 8, payload_end,
                                      "values"));
        if (type == kTypeInt64) {
          column.type = ColumnType::kInt64;
          column.int64_values = {
              reinterpret_cast<const int64_t*>(base + offset), row_count};
        } else {
          column.type = ColumnType::kDouble;
          column.double_values = {
              reinterpret_cast<const double*>(base + offset), row_count};
        }
        break;
      }
      case kTypeString: {
        column.type = ColumnType::kString;
        uint64_t codes_offset = 0, dict_count = 0, offsets_offset = 0,
                 blob_offset = 0, blob_length = 0;
        if (!dir.TakeU64(&codes_offset).ok() ||
            !dir.TakeU64(&dict_count).ok() ||
            !dir.TakeU64(&offsets_offset).ok() ||
            !dir.TakeU64(&blob_offset).ok() ||
            !dir.TakeU64(&blob_length).ok()) {
          return DataLossError("directory truncated in column %u of %u", c,
                               column_count);
        }
        if (dict_count >
            static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
          return DataLossError("dictionary of %llu entries exceeds int32 "
                               "code space",
                               static_cast<unsigned long long>(dict_count));
        }
        NDV_RETURN_IF_ERROR(
            CheckBlob(codes_offset, row_count, 4, 4, payload_end, "codes"));
        NDV_RETURN_IF_ERROR(CheckBlob(offsets_offset, dict_count + 1, 8, 8,
                                      payload_end, "dict offsets"));
        NDV_RETURN_IF_ERROR(
            CheckBlob(blob_offset, blob_length, 1, 1, payload_end,
                      "dict blob"));

        column.codes = {reinterpret_cast<const int32_t*>(base + codes_offset),
                        row_count};
        column.dict_offsets = {
            reinterpret_cast<const uint64_t*>(base + offsets_offset),
            dict_count + 1};
        column.dict_blob = reinterpret_cast<const char*>(base + blob_offset);
        column.dict_count = dict_count;

        if (column.dict_offsets.front() != 0 ||
            column.dict_offsets.back() != blob_length) {
          return DataLossError(
              "dict offsets of '%.*s' do not span the blob",
              static_cast<int>(column.name.size()), column.name.data());
        }
        for (uint64_t i = 0; i < dict_count; ++i) {
          if (column.dict_offsets[i] > column.dict_offsets[i + 1]) {
            return DataLossError(
                "dict offsets of '%.*s' decrease at entry %llu",
                static_cast<int>(column.name.size()), column.name.data(),
                static_cast<unsigned long long>(i));
          }
        }
        const auto dict_limit = static_cast<int32_t>(dict_count);
        for (uint64_t row = 0; row < row_count; ++row) {
          const int32_t code = column.codes[row];
          if (code < 0 || code >= dict_limit) {
            return DataLossError(
                "code %ld at row %llu of '%.*s' outside dictionary of %llu",
                static_cast<long>(code),
                static_cast<unsigned long long>(row),
                static_cast<int>(column.name.size()), column.name.data(),
                static_cast<unsigned long long>(dict_count));
          }
        }
        break;
      }
      default:
        return DataLossError("column %u of %u has unknown type %u", c,
                             column_count, type);
    }
    view.columns.push_back(column);
  }

  if (dir.remaining() != 0) {
    return DataLossError("%zu trailing bytes after the last directory entry",
                         dir.remaining());
  }
  return view;
}

namespace {

// Cuts one validated v1 array into kDefaultPackBlockRows-row raw blocks
// that alias it in place; the last block may be partial. The result is the
// block list of a v2 column written with the raw codec at the default
// block size.
template <typename T>
std::vector<PackBlockRef> RawBlocks(std::span<const T> values) {
  const auto rows = static_cast<int64_t>(values.size());
  std::vector<PackBlockRef> blocks;
  blocks.reserve(static_cast<size_t>(
      (rows + kDefaultPackBlockRows - 1) / kDefaultPackBlockRows));
  for (int64_t begin = 0; begin < rows; begin += kDefaultPackBlockRows) {
    const int64_t block = std::min(kDefaultPackBlockRows, rows - begin);
    blocks.push_back(
        {PackBlockCodec::kRaw, 0, block,
         reinterpret_cast<const uint8_t*>(values.data() + begin),
         static_cast<uint64_t>(block) * sizeof(T)});
  }
  return blocks;
}

}  // namespace

Table TableFromPack(const PackView& view, std::shared_ptr<const void> owner) {
  Table table;
  const auto rows = static_cast<int64_t>(view.row_count);
  for (const PackColumnView& column : view.columns) {
    std::unique_ptr<Column> built;
    switch (column.type) {
      case ColumnType::kInt64:
        built = std::make_unique<BlockedInt64Column>(
            rows, kDefaultPackBlockRows, RawBlocks(column.int64_values),
            owner);
        break;
      case ColumnType::kDouble:
        built = std::make_unique<BlockedDoubleColumn>(
            rows, kDefaultPackBlockRows, RawBlocks(column.double_values),
            owner);
        break;
      case ColumnType::kString:
        built = std::make_unique<BlockedStringColumn>(
            rows, kDefaultPackBlockRows, RawBlocks(column.codes),
            column.dict_offsets, column.dict_blob, owner);
        break;
    }
    NDV_CHECK(built != nullptr);
    table.AddColumn(std::string(column.name), std::move(built));
  }
  return table;
}

StatusOr<Table> OpenPackFile(const std::string& path) {
  auto file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  // Both parsers checksum the whole image front to back before any column
  // materializes — announce the one-pass read so the kernel streams it.
  (*file)->AdviseSequential(0, (*file)->size());
  const std::span<const uint8_t> bytes = (*file)->bytes();
  if (StartsWithPackV2Magic(
          {reinterpret_cast<const char*>(bytes.data()), bytes.size()})) {
    auto table = OpenPackV2FromBytes(bytes, *std::move(file));
    if (!table.ok()) {
      return Status(table.status().code(),
                    path + ": " + table.status().message());
    }
    return table;
  }
  auto view = ParsePack(bytes);
  if (!view.ok()) {
    return Status(view.status().code(),
                  path + ": " + view.status().message());
  }
  return TableFromPack(*view, *std::move(file));
}

}  // namespace ndv
