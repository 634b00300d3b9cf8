#include "util/artifact_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/text_cursor.h"

namespace prestroid {

namespace {

constexpr char kMagic[] = "PRESTROID_ARTIFACT";
constexpr char kVersion[] = "v2";
// Chunked writes keep the short-write fault site meaningful and bound the
// largest single write(2) the kernel must accept.
constexpr size_t kWriteChunk = 1 << 20;

/// Slicing-by-8 tables of the reflected CRC-32 polynomial 0xEDB88320:
/// table[0] is the classic byte table, and table[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight bytes fold in with eight lookups that
/// do not depend on each other.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Bounded exponential backoff between interrupted-syscall (EINTR) retries.
/// A handful of immediate-ish retries with growing pauses rides out signal
/// storms; a syscall still interrupted after the budget is a real error, so
/// artifact I/O can never spin forever on a hostile signal source.
class EintrBackoff {
 public:
  /// Returns true (after sleeping) if another retry is allowed, false when
  /// the retry budget is exhausted.
  bool Next() {
    if (attempt_ >= kMaxRetries) return false;
    // 0us, 1us, 2us, 4us, ... capped at ~1ms: ~2ms worst-case total.
    if (attempt_ > 0) {
      long nanos = (1L << (attempt_ - 1)) * 1000L;
      if (nanos > 1000000L) nanos = 1000000L;
      struct timespec delay = {0, nanos};
      ::nanosleep(&delay, nullptr);
    }
    ++attempt_;
    return true;
  }

  int attempts() const { return attempt_; }

  static constexpr int kMaxRetries = 8;

 private:
  int attempt_ = 0;
};

/// True when the fault injector wants this syscall to report EINTR.
bool InjectedEintr() {
  return FaultInjector::Global().ShouldFail(FaultSite::kArtifactEintr);
}

/// open(2) with EINTR retry.
int OpenWithRetry(const char* path, int flags, mode_t mode) {
  EintrBackoff backoff;
  while (backoff.Next()) {
    if (InjectedEintr()) {
      errno = EINTR;
      continue;
    }
    const int fd = ::open(path, flags, mode);
    if (fd >= 0 || errno != EINTR) return fd;
  }
  errno = EINTR;
  return -1;
}

/// Removes the temp file and reports `status`; used on every failure path of
/// AtomicWriteFile so a failed save never leaves stray temp files around.
Status CleanupAndFail(const std::string& tmp_path, Status status) {
  ::unlink(tmp_path.c_str());
  return status;
}

/// Best-effort fsync of the directory containing `path`, so the rename that
/// published an artifact survives a power loss. Failure is ignored: the data
/// file itself is already durable and some filesystems reject dir fsync.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const Crc32Tables& t = Crc32Table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  // Eight bytes per step, read byte by byte so neither alignment nor host
  // byte order matters; the tail goes one byte at a time.
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = crc ^ (uint32_t{bytes[0]} | uint32_t{bytes[1]} << 8 |
                               uint32_t{bytes[2]} << 16 |
                               uint32_t{bytes[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][bytes[4]] ^
          t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32(const std::string& data) {
  return Crc32(data.data(), data.size());
}

Status AtomicWriteFile(const std::string& path, const std::string& payload) {
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = OpenWithRetry(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::FromErrno("open " + tmp_path, errno);

  FaultInjector& faults = FaultInjector::Global();
  size_t offset = 0;
  EintrBackoff backoff;
  while (offset < payload.size()) {
    const size_t chunk = std::min(payload.size() - offset, kWriteChunk);
    if (faults.ShouldFail(FaultSite::kArtifactWrite)) {
      if (faults.short_write_bytes() != static_cast<size_t>(-1)) {
        // Simulate a torn write that partially reached the disk before the
        // process died: leave the truncated temp file behind, exactly as a
        // real crash would. The destination is untouched either way.
        const size_t partial = std::min(chunk, faults.short_write_bytes());
        if (partial > 0) {
          [[maybe_unused]] ssize_t ignored =
              ::write(fd, payload.data() + offset, partial);
        }
        ::close(fd);
        return Status::IoError("injected short write: " + tmp_path);
      }
      ::close(fd);
      return CleanupAndFail(tmp_path,
                            Status::IoError("injected write failure: " + tmp_path));
    }
    ssize_t written = -1;
    if (InjectedEintr()) {
      errno = EINTR;
    } else {
      written = ::write(fd, payload.data() + offset, chunk);
    }
    if (written < 0) {
      if (errno == EINTR) {
        if (backoff.Next()) continue;
        ::close(fd);
        return CleanupAndFail(
            tmp_path,
            Status::IoError("write " + tmp_path + " interrupted " +
                            std::to_string(EintrBackoff::kMaxRetries) +
                            " times; giving up"));
      }
      const int saved_errno = errno;
      ::close(fd);
      return CleanupAndFail(tmp_path,
                            Status::FromErrno("write " + tmp_path, saved_errno));
    }
    offset += static_cast<size_t>(written);
  }

  if (faults.ShouldFail(FaultSite::kArtifactSync)) {
    ::close(fd);
    return CleanupAndFail(tmp_path,
                          Status::IoError("injected fsync failure: " + tmp_path));
  }
  if (::fsync(fd) != 0) {
    const int saved_errno = errno;
    ::close(fd);
    return CleanupAndFail(tmp_path,
                          Status::FromErrno("fsync " + tmp_path, saved_errno));
  }
  if (::close(fd) != 0) {
    return CleanupAndFail(tmp_path,
                          Status::FromErrno("close " + tmp_path, errno));
  }

  if (faults.ShouldFail(FaultSite::kArtifactRename)) {
    return CleanupAndFail(tmp_path,
                          Status::IoError("injected rename failure: " + path));
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return CleanupAndFail(
        tmp_path, Status::FromErrno("rename " + tmp_path + " -> " + path, errno));
  }
  SyncParentDir(path);
  return Status::OK();
}

namespace {

/// One read(2) of up to `room` bytes with the EINTR policy of AtomicWriteFile:
/// the byte count (0 at end of file) or the error, naming `path`.
Result<size_t> ReadRetrying(int fd, char* dst, size_t room,
                            const std::string& path, EintrBackoff& backoff) {
  for (;;) {
    ssize_t n = -1;
    if (InjectedEintr()) {
      errno = EINTR;
    } else {
      n = ::read(fd, dst, room);
    }
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) {
      if (backoff.Next()) continue;
      return Status::IoError("read " + path + " interrupted " +
                             std::to_string(EintrBackoff::kMaxRetries) +
                             " times; giving up");
    }
    return Status::FromErrno("read " + path, errno);
  }
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = OpenWithRetry(path.c_str(), O_RDONLY, 0);
  if (fd < 0) return Status::IoError("cannot open for read: " + path);
  // Size the buffer from fstat and read straight into it; anything past the
  // stat size (a growing file, a pipe) is appended through a bounce buffer.
  struct stat st;
  size_t expected = 0;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    expected = static_cast<size_t>(st.st_size);
  }
  std::string out(expected, '\0');
  size_t filled = 0;
  char buffer[1 << 16];
  EintrBackoff backoff;
  for (;;) {
    const bool direct = filled < expected;
    char* dst = direct ? out.data() + filled : buffer;
    const size_t room = direct ? expected - filled : sizeof(buffer);
    Result<size_t> n = ReadRetrying(fd, dst, room, path, backoff);
    if (!n.ok()) {
      ::close(fd);
      return n.status();
    }
    if (*n == 0) break;
    if (direct) {
      filled += *n;
    } else {
      out.append(buffer, *n);
      filled = out.size();
    }
  }
  ::close(fd);
  out.resize(filled);  // the file shrank after fstat
  return out;
}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileReader::Open(const std::string& path) {
  PRESTROID_CHECK_LT(fd_, 0);
  fd_ = OpenWithRetry(path.c_str(), O_RDONLY, 0);
  if (fd_ < 0) return Status::IoError("cannot open for read: " + path);
  path_ = path;
  buffer_.resize(kPieceBytes);
  return Status::OK();
}

Result<std::string_view> FileReader::Next() {
  PRESTROID_CHECK_GE(fd_, 0);
  EintrBackoff backoff;
  PRESTROID_ASSIGN_OR_RETURN(
      const size_t n,
      ReadRetrying(fd_, buffer_.data(), buffer_.size(), path_, backoff));
  return std::string_view(buffer_.data(), n);
}

Status ValidateArtifactFile(const std::string& path) {
  PRESTROID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  PRESTROID_ASSIGN_OR_RETURN(std::vector<ArtifactSection> sections,
                             DecodeArtifact(bytes));
  (void)sections;
  return Status::OK();
}

std::string EncodeArtifact(const std::vector<ArtifactSection>& sections) {
  std::ostringstream os;
  os << kMagic << " " << kVersion << " " << sections.size() << "\n";
  for (const ArtifactSection& section : sections) {
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", Crc32(section.payload));
    os << "section " << section.name << " " << section.payload.size() << " "
       << crc_hex << "\n";
    os << section.payload << "\n";
  }
  os << "end\n";
  return os.str();
}

Result<std::vector<ArtifactSection>> DecodeArtifact(const std::string& bytes) {
  size_t pos = 0;
  // Pulls the next line with its '\n', as a TextCursor reads it; a missing
  // line is corruption (header lines never legitimately run out).
  auto next_line = [&bytes, &pos](std::string_view* line) -> bool {
    const size_t end = bytes.find('\n', pos);
    if (end == std::string::npos) return false;
    *line = std::string_view(bytes).substr(pos, end + 1 - pos);
    pos = end + 1;
    return true;
  };
  // A line as an error message shows it: without its '\n'.
  auto shown = [](std::string_view line) {
    return std::string(line.substr(0, line.size() - 1));
  };

  std::string_view line;
  if (!next_line(&line)) {
    return Status::DataCorruption("artifact truncated before header");
  }
  TextCursor header(line);
  std::string_view magic, version, count_text;
  if (!header.Word(&magic) || !header.Word(&version) ||
      !header.Word(&count_text) || magic != kMagic) {
    return Status::DataCorruption("not a Prestroid artifact (bad magic)");
  }
  if (version != kVersion) {
    return Status::DataCorruption("unsupported artifact version: " +
                                  std::string(version));
  }
  // Checked parse: a negative count must not wrap into a near-SIZE_MAX
  // one, which the reserve below would then try to honour. A count can
  // also never exceed the byte length of the file.
  int64_t num_sections = 0;
  if (!ParseInt64(count_text, &num_sections) || num_sections < 0 ||
      static_cast<uint64_t>(num_sections) > bytes.size()) {
    return Status::DataCorruption("implausible section count: " +
                                  std::string(count_text));
  }

  std::vector<ArtifactSection> sections;
  sections.reserve(static_cast<size_t>(num_sections));
  for (int64_t i = 0; i < num_sections; ++i) {
    if (!next_line(&line)) {
      return Status::DataCorruption("artifact truncated in section table");
    }
    TextCursor section_header(line);
    std::string_view tag, name, length_text, crc_hex;
    if (!section_header.Word(&tag) || !section_header.Word(&name) ||
        !section_header.Word(&length_text) || !section_header.Word(&crc_hex) ||
        tag != "section" || crc_hex.size() != 8) {
      return Status::DataCorruption("malformed section header: " +
                                    shown(line));
    }
    int64_t length_value = 0;
    if (!ParseInt64(length_text, &length_value) || length_value < 0) {
      return Status::DataCorruption("implausible section length: " +
                                    shown(line));
    }
    const size_t length = static_cast<size_t>(length_value);
    // A lenient hex parse would stop at the first bad character (or accept
    // uppercase aliases of the lowercase digits the writer emits), so a
    // flipped checksum byte could still "match" — require strict lowercase
    // hex.
    for (char c : crc_hex) {
      if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
        return Status::DataCorruption("malformed section checksum: " +
                                      shown(line));
      }
    }
    // Subtraction form: `pos + length + 1` would wrap for a length near
    // SIZE_MAX and sail past the bound. `pos <= bytes.size()` always holds,
    // and the section needs `length` payload bytes plus its terminator.
    const size_t available = bytes.size() - pos;
    if (length > available || available - length < 1) {
      return Status::DataCorruption("artifact truncated inside section " +
                                    std::string(name));
    }
    ArtifactSection section;
    section.name = name;
    section.payload.assign(bytes, pos, length);
    pos += length;
    if (bytes[pos] != '\n') {
      return Status::DataCorruption("missing section terminator: " +
                                    section.name);
    }
    ++pos;
    uint32_t expected = 0;  // eight lowercase hex digits, checked above
    std::from_chars(crc_hex.data(), crc_hex.data() + crc_hex.size(), expected,
                    16);
    const uint32_t actual = Crc32(section.payload);
    if (actual != expected) {
      return Status::DataCorruption("CRC mismatch in section " + section.name);
    }
    sections.push_back(std::move(section));
  }
  if (!next_line(&line) || line != "end\n") {
    return Status::DataCorruption("artifact missing end marker");
  }
  if (pos != bytes.size()) {
    return Status::DataCorruption("trailing bytes after artifact end marker");
  }
  return sections;
}

Status WriteArtifactFile(const std::string& path,
                         const std::vector<ArtifactSection>& sections) {
  return AtomicWriteFile(path, EncodeArtifact(sections));
}

Result<std::vector<ArtifactSection>> ReadArtifactFile(const std::string& path) {
  PRESTROID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DecodeArtifact(bytes);
}

Result<const ArtifactSection*> FindSection(
    const std::vector<ArtifactSection>& sections, const std::string& name) {
  for (const ArtifactSection& section : sections) {
    if (section.name == name) return &section;
  }
  return Status::DataCorruption("artifact missing required section: " + name);
}

}  // namespace prestroid
