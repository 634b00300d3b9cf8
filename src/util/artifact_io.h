#ifndef PRESTROID_UTIL_ARTIFACT_IO_H_
#define PRESTROID_UTIL_ARTIFACT_IO_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace prestroid {

/// Crash-safe artifact container used for every on-disk model/checkpoint
/// file. Two layers:
///
///  1. AtomicWriteFile — all-or-nothing publication: write a sibling temp
///     file, fsync it, then rename(2) over the destination. A crash at any
///     point leaves either the complete old file or the complete new file,
///     never a torn mix.
///  2. A versioned, checksummed section format:
///
///        PRESTROID_ARTIFACT v2 <n_sections>\n
///        section <name> <byte_len> <crc32_hex>\n
///        <byte_len raw payload bytes>\n          (repeated per section)
///        end\n
///
///     Every section carries a CRC32 (IEEE 802.3 polynomial) over its
///     payload, so any truncation or bit-flip is detected at load time and
///     reported as StatusCode::kDataCorruption — corrupted weights are
///     never silently deserialized.

/// CRC32 (reflected polynomial 0xEDB88320, zlib-compatible) of `data`.
/// Pass a previous result as `seed` to checksum incrementally.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);
uint32_t Crc32(const std::string& data);

/// Writes `payload` to `path` atomically: temp file + fsync + rename. On
/// any failure the destination is untouched (a previously published file
/// stays intact) and the temp file is removed. Instrumented with
/// FaultSite::kArtifactWrite / kArtifactSync / kArtifactRename.
Status AtomicWriteFile(const std::string& path, const std::string& payload);

/// Reads the whole file in binary mode into a string sized from fstat (one
/// allocation, no intermediate copies). Interrupted syscalls (EINTR) are
/// retried with a bounded exponential backoff, like AtomicWriteFile.
Result<std::string> ReadFileToString(const std::string& path);

/// Reads a file front to back in pieces of at most kPieceBytes, so a caller
/// that consumes each piece as it arrives holds one piece, not the file.
/// Open and read errors and EINTR retries are those of ReadFileToString.
class FileReader {
 public:
  static constexpr size_t kPieceBytes = 64 << 10;

  FileReader() = default;
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  Status Open(const std::string& path);
  /// The next piece, valid until the next call; empty at end of file.
  Result<std::string_view> Next();

 private:
  int fd_ = -1;
  std::string path_;
  std::string buffer_;
};

/// Full integrity check of a v2 artifact container on disk: reads the file
/// and CRC-validates every section without deserializing any payload.
/// kDataCorruption for truncation, bit flips, or a pre-container legacy file
/// (which carries no checksums and therefore cannot be validated); IoError
/// if the file is unreadable. Serving uses this to fail fast at startup
/// instead of discovering a torn model mid-request.
Status ValidateArtifactFile(const std::string& path);

/// One named payload inside an artifact file.
struct ArtifactSection {
  std::string name;
  std::string payload;
};

/// Serializes sections into the v2 container format (in memory).
std::string EncodeArtifact(const std::vector<ArtifactSection>& sections);

/// Parses and integrity-checks a v2 container. Returns kDataCorruption on
/// bad magic, unsupported version, truncation, malformed section headers,
/// or any CRC mismatch.
Result<std::vector<ArtifactSection>> DecodeArtifact(const std::string& bytes);

/// Convenience: EncodeArtifact + AtomicWriteFile.
Status WriteArtifactFile(const std::string& path,
                         const std::vector<ArtifactSection>& sections);

/// Convenience: ReadFileToString + DecodeArtifact. IoError if the file is
/// unreadable, kDataCorruption if its contents fail validation.
Result<std::vector<ArtifactSection>> ReadArtifactFile(const std::string& path);

/// Looks up a section by name; kDataCorruption if absent (a valid container
/// missing a required section means it was produced by incompatible code).
Result<const ArtifactSection*> FindSection(
    const std::vector<ArtifactSection>& sections, const std::string& name);

}  // namespace prestroid

#endif  // PRESTROID_UTIL_ARTIFACT_IO_H_
