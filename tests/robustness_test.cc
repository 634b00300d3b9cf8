/// Fault-tolerance tests: CRC32 vectors, artifact container integrity,
/// crash-safe atomic writes, and pipeline-level corruption detection. These
/// back the robustness guarantees documented in DESIGN.md: an interrupted
/// save never damages the previously published artifact, and any single
/// bit-flip or truncation surfaces as StatusCode::kDataCorruption rather
/// than a crash or silently corrupted weights.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "util/artifact_io.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace prestroid {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical CRC-32/ISO-HDLC check value.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "prestroid artifact payload \n \0 bytes";
  uint32_t partial = Crc32(data.data(), 10);
  partial = Crc32(data.data() + 10, data.size() - 10, partial);
  EXPECT_EQ(partial, Crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data = "the quick brown fox";
  const uint32_t original = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32(data), original) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

/// Bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320): the definition
/// the table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

/// 72 bytes covering every bit position with varied values.
std::vector<unsigned char> CrcTestBytes() {
  std::vector<unsigned char> bytes(72);
  uint32_t x = 0x9e3779b9u;
  for (unsigned char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  bytes[5] = 0x00;
  bytes[13] = 0xff;
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> bytes = CrcTestBytes();
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = bytes.data() + start;
      EXPECT_EQ(Crc32(p, len), BitwiseCrc32(p, len, 0))
          << "start " << start << " len " << len;
      EXPECT_EQ(Crc32(p, len, 0x12345678u), BitwiseCrc32(p, len, 0x12345678u))
          << "seeded, start " << start << " len " << len;
    }
  }
}

TEST(Crc32Test, IncrementalSplitAtEveryOffset) {
  const std::vector<unsigned char> bytes = CrcTestBytes();
  const uint32_t whole = BitwiseCrc32(bytes.data(), bytes.size(), 0);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

std::vector<ArtifactSection> TestSections() {
  // Payloads deliberately exercise embedded newlines, NULs and high bytes.
  std::string binary = "line1\nline2\n";
  binary.push_back('\0');
  binary.push_back('\xff');
  binary += "tail";
  return {{"meta", "config v1 alpha=0.5\n"},
          {"blob", binary},
          {"empty", ""}};
}

TEST(ArtifactTest, EncodeDecodeRoundTrip) {
  const std::vector<ArtifactSection> sections = TestSections();
  auto decoded = DecodeArtifact(EncodeArtifact(sections));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ((*decoded)[i].name, sections[i].name);
    EXPECT_EQ((*decoded)[i].payload, sections[i].payload);
  }
}

TEST(ArtifactTest, FindSectionReportsMissingAsCorruption) {
  const std::vector<ArtifactSection> sections = TestSections();
  ASSERT_TRUE(FindSection(sections, "blob").ok());
  auto missing = FindSection(sections, "weights");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kDataCorruption);
}

TEST(ArtifactTest, RejectsBadMagicAndVersion) {
  auto bad_magic = DecodeArtifact("SOME_OTHER_FORMAT v2 0\nend\n");
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), StatusCode::kDataCorruption);

  auto bad_version = DecodeArtifact("PRESTROID_ARTIFACT v9 0\nend\n");
  ASSERT_FALSE(bad_version.ok());
  EXPECT_EQ(bad_version.status().code(), StatusCode::kDataCorruption);
  EXPECT_NE(bad_version.status().message().find("version"), std::string::npos);

  EXPECT_EQ(DecodeArtifact("").status().code(), StatusCode::kDataCorruption);
}

TEST(ArtifactTest, RejectsTrailingBytes) {
  std::string bytes = EncodeArtifact(TestSections());
  bytes += "x";
  auto decoded = DecodeArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataCorruption);
}

TEST(ArtifactTest, HostileCountsAndLengthsAreCorruption) {
  // Counts/lengths are attacker-controlled text: negative values (which a
  // plain `istream >> size_t` wraps to near SIZE_MAX), values beyond the
  // file, and values that would overflow `pos + length + 1` must all be
  // clean kDataCorruption — never an allocation attempt or an out-of-bounds
  // read past the buffer.
  const char* hostile[] = {
      "PRESTROID_ARTIFACT v2 -1\nend\n",
      "PRESTROID_ARTIFACT v2 18446744073709551615\nend\n",
      "PRESTROID_ARTIFACT v2 99999999\nend\n",
      "PRESTROID_ARTIFACT v2 1\n"
      "section meta -5 00000000\n\nend\n",
      "PRESTROID_ARTIFACT v2 1\n"
      "section meta 18446744073709551614 00000000\n\nend\n",
      "PRESTROID_ARTIFACT v2 1\n"
      "section meta 9223372036854775807 00000000\n\nend\n",
      "PRESTROID_ARTIFACT v2 1\n"
      "section meta 100 00000000\nshort\nend\n",
  };
  for (const char* bytes : hostile) {
    auto decoded = DecodeArtifact(bytes);
    ASSERT_FALSE(decoded.ok()) << bytes;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataCorruption) << bytes;
  }
}

TEST(ArtifactTest, EveryTruncationIsCorruption) {
  const std::string bytes = EncodeArtifact(TestSections());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeArtifact(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataCorruption)
        << "prefix length " << len;
  }
}

TEST(ArtifactTest, EveryBitFlipIsDetected) {
  const std::vector<ArtifactSection> sections = TestSections();
  const std::string bytes = EncodeArtifact(sections);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] ^= static_cast<char>(1 << bit);
      auto decoded = DecodeArtifact(flipped);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kDataCorruption)
            << "byte " << byte << " bit " << bit;
        continue;
      }
      // The container has no checksum over section *names*, so a flip
      // confined to a name can still decode. It must then differ from the
      // original in name only — payloads are CRC-protected — and readers
      // catch it via FindSection (see PipelineLoadTest below).
      ASSERT_EQ(decoded->size(), sections.size());
      bool name_changed = false;
      for (size_t i = 0; i < sections.size(); ++i) {
        EXPECT_EQ((*decoded)[i].payload, sections[i].payload)
            << "byte " << byte << " bit " << bit;
        if ((*decoded)[i].name != sections[i].name) name_changed = true;
      }
      EXPECT_TRUE(name_changed) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(AtomicWriteTest, WritesAndReplaces) {
  const std::string path = TempPath("atomic_basic.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "first contents").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "first contents");
  ASSERT_TRUE(AtomicWriteFile(path, "second contents").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "second contents");
}

TEST(AtomicWriteTest, FailuresNeverTouchTheDestination) {
  ScopedFaultInjection faults;
  const std::string path = TempPath("atomic_failures.bin");
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  ASSERT_TRUE(AtomicWriteFile(path, "published v1").ok());

  // A failure at every instrumented site: write, fsync, rename. Each must
  // leave the published file byte-identical and clean up its temp file.
  for (FaultSite site : {FaultSite::kArtifactWrite, FaultSite::kArtifactSync,
                         FaultSite::kArtifactRename}) {
    FaultInjector::Global().ArmFailure(site);
    Status failed = AtomicWriteFile(path, "candidate v2");
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "published v1");
    EXPECT_FALSE(FileExists(tmp_path));
    FaultInjector::Global().Reset();
  }

  // With faults cleared the replacement goes through.
  ASSERT_TRUE(AtomicWriteFile(path, "candidate v2").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "candidate v2");
}

TEST(AtomicWriteTest, TornWriteLeavesOldArtifactLoadable) {
  ScopedFaultInjection faults;
  const std::string path = TempPath("atomic_torn.bin");
  const std::vector<ArtifactSection> old_sections = {{"meta", "generation 1"}};
  ASSERT_TRUE(WriteArtifactFile(path, old_sections).ok());

  // Simulate the process dying mid-write: only 10 bytes of the new artifact
  // reach the disk and the torn temp file is left behind, as after a crash.
  FaultInjector::Global().ArmShortWrite(/*max_bytes=*/10);
  Status interrupted =
      WriteArtifactFile(path, {{"meta", "generation 2 (never published)"}});
  EXPECT_FALSE(interrupted.ok());

  // Criterion (a): the previously published artifact still loads cleanly.
  auto recovered = ReadArtifactFile(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ((*recovered)[0].payload, "generation 1");

  // The torn temp file itself is garbage — and detectably so.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  ASSERT_TRUE(FileExists(tmp_path));
  auto torn = ReadArtifactFile(tmp_path);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataCorruption);

  // Recovery: a later save overwrites the stray temp file and publishes.
  FaultInjector::Global().Reset();
  ASSERT_TRUE(WriteArtifactFile(path, {{"meta", "generation 3"}}).ok());
  EXPECT_EQ((*ReadArtifactFile(path))[0].payload, "generation 3");
  EXPECT_FALSE(FileExists(tmp_path));
}

// --------------------------------------------------------------------------
// EINTR retry with bounded exponential backoff (FaultSite::kArtifactEintr)
// --------------------------------------------------------------------------

TEST(EintrRetryTest, SingleInterruptOnWritePathIsRetried) {
  ScopedFaultInjection faults;
  const std::string path = TempPath("eintr_write.bin");
  // One injected EINTR somewhere in open/write: the bounded retry loop must
  // absorb it and the write must succeed as if nothing happened.
  FaultInjector::Global().ArmFailure(FaultSite::kArtifactEintr);
  ASSERT_TRUE(AtomicWriteFile(path, "contents after one EINTR").ok());
  FaultInjector::Global().Reset();
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "contents after one EINTR");
}

TEST(EintrRetryTest, SingleInterruptOnReadPathIsRetried) {
  ScopedFaultInjection faults;
  const std::string path = TempPath("eintr_read.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "readable payload").ok());
  FaultInjector::Global().ArmFailure(FaultSite::kArtifactEintr);
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "readable payload");
  // The retry actually happened: the site was hit more than once.
  EXPECT_GE(FaultInjector::Global().hits(FaultSite::kArtifactEintr), 2u);
}

TEST(EintrRetryTest, PersistentInterruptExhaustsTheWriteBudget) {
  ScopedFaultInjection faults;
  const std::string path = TempPath("eintr_write_storm.bin");
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  ASSERT_TRUE(AtomicWriteFile(path, "published v1").ok());

  // trigger_after=1 lets the open(2) through so the write(2) loop is the one
  // that faces the storm; repeat keeps every retry interrupted, so the
  // bounded budget must run out instead of spinning forever.
  FaultInjector::Global().ArmFailure(FaultSite::kArtifactEintr,
                                     /*trigger_after=*/1, /*repeat=*/true);
  Status failed = AtomicWriteFile(path, "candidate v2");
  FaultInjector::Global().Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_NE(failed.message().find("interrupted"), std::string::npos)
      << failed.ToString();
  // Giving up is clean: destination untouched, temp file removed.
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "published v1");
  EXPECT_FALSE(FileExists(tmp_path));
}

TEST(EintrRetryTest, PersistentInterruptExhaustsTheReadBudget) {
  ScopedFaultInjection faults;
  const std::string path = TempPath("eintr_read_storm.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "unreachable payload").ok());
  FaultInjector::Global().ArmFailure(FaultSite::kArtifactEintr,
                                     /*trigger_after=*/1, /*repeat=*/true);
  auto read = ReadFileToString(path);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("interrupted"), std::string::npos);
  // The storm over, the file reads back intact.
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "unreachable payload");
}

// --------------------------------------------------------------------------
// ValidateArtifactFile (serve-startup / candidate-promotion CRC gate)
// --------------------------------------------------------------------------

TEST(ValidateArtifactFileTest, AcceptsIntactRejectsCorruptAndMissing) {
  const std::string path = TempPath("validate_artifact.bin");
  ASSERT_TRUE(WriteArtifactFile(path, TestSections()).ok());
  EXPECT_TRUE(ValidateArtifactFile(path).ok());

  std::string bytes = ReadFileToString(path).ValueOrDie();
  bytes[bytes.size() / 2] ^= 0x01;
  WriteRawFile(path, bytes);
  Status corrupt = ValidateArtifactFile(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kDataCorruption);

  Status missing = ValidateArtifactFile(TempPath("no_such_artifact.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kIoError);
}

/// End-to-end corruption tests over a real fitted pipeline artifact. Fitting
/// is expensive, so the suite fits, trains and saves exactly once.
class PipelineLoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 1;
    workload::GeneratedSchema schema = GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 60;
    trace_config.num_days = 20;
    trace_config.seed = 2;
    records_ = new std::vector<workload::QueryRecord>(
        GenerateGrabTrace(schema, trace_config).ValueOrDie());

    core::PipelineConfig config;
    config.word2vec.dim = 16;
    config.word2vec.min_count = 2;
    config.word2vec.epochs = 2;
    config.sampler.node_limit = 16;
    config.sampler.conv_layers = 3;
    config.num_subtrees = 3;
    config.use_subtrees = true;
    config.conv_channels = {8, 8, 8};
    config.dense_units = {8};
    std::vector<size_t> train_indices(records_->size());
    for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
    auto pipeline =
        core::PrestroidPipeline::Fit(*records_, train_indices, config)
            .ValueOrDie();

    path_ = new std::string(TempPath("pipeline_corruption.bin"));
    ASSERT_TRUE(pipeline->SaveFile(*path_).ok());
    bytes_ = new std::string(ReadFileToString(*path_).ValueOrDie());
    pipeline_ = pipeline.release();
  }
  static void TearDownTestSuite() {
    delete records_;
    delete pipeline_;
    delete path_;
    delete bytes_;
  }

  static std::vector<workload::QueryRecord>* records_;
  static core::PrestroidPipeline* pipeline_;
  static std::string* path_;
  static std::string* bytes_;
};

std::vector<workload::QueryRecord>* PipelineLoadTest::records_ = nullptr;
core::PrestroidPipeline* PipelineLoadTest::pipeline_ = nullptr;
std::string* PipelineLoadTest::path_ = nullptr;
std::string* PipelineLoadTest::bytes_ = nullptr;

TEST_F(PipelineLoadTest, PristineArtifactLoads) {
  auto loaded = core::PrestroidPipeline::LoadFile(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->ModelName(), pipeline_->ModelName());
}

TEST_F(PipelineLoadTest, InterruptedSaveLeavesPreviousArtifactLoadable) {
  ScopedFaultInjection faults;
  FaultInjector::Global().ArmShortWrite(/*max_bytes=*/64);
  EXPECT_FALSE(pipeline_->SaveFile(*path_).ok());
  FaultInjector::Global().Reset();

  // Criterion (a) at the pipeline level: the artifact published before the
  // interrupted save is untouched and still fully loadable.
  EXPECT_EQ(ReadFileToString(*path_).ValueOrDie(), *bytes_);
  auto loaded = core::PrestroidPipeline::LoadFile(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(PipelineLoadTest, SampledBitFlipsAlwaysReportCorruption) {
  // Criterion (b): a single flipped bit anywhere in the artifact makes
  // LoadFile return kDataCorruption — never a crash, never silent garbage.
  // Exhausting every bit of a multi-hundred-KB artifact is too slow, so
  // sample positions uniformly; the seed is fixed for reproducibility.
  const std::string corrupt_path = TempPath("pipeline_bitflip.bin");
  Rng rng(42);
  const size_t kSamples = 200;
  for (size_t i = 0; i < kSamples; ++i) {
    const size_t byte = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes_->size()) - 1));
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    std::string flipped = *bytes_;
    flipped[byte] ^= static_cast<char>(1 << bit);
    WriteRawFile(corrupt_path, flipped);
    auto loaded = core::PrestroidPipeline::LoadFile(corrupt_path);
    ASSERT_FALSE(loaded.ok()) << "byte " << byte << " bit " << bit;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
        << "byte " << byte << " bit " << bit << ": "
        << loaded.status().ToString();
  }
}

TEST_F(PipelineLoadTest, HeaderBitFlipsAlwaysReportCorruption) {
  // The first ~256 bytes cover the magic line and early section headers —
  // the region where a flip is most likely to confuse a parser rather than
  // trip a CRC. Exhaust every bit there.
  const std::string corrupt_path = TempPath("pipeline_headerflip.bin");
  const size_t limit = std::min<size_t>(bytes_->size(), 256);
  for (size_t byte = 0; byte < limit; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = *bytes_;
      flipped[byte] ^= static_cast<char>(1 << bit);
      WriteRawFile(corrupt_path, flipped);
      auto loaded = core::PrestroidPipeline::LoadFile(corrupt_path);
      ASSERT_FALSE(loaded.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST_F(PipelineLoadTest, SampledTruncationsAlwaysReportCorruption) {
  const std::string corrupt_path = TempPath("pipeline_truncate.bin");
  Rng rng(43);
  std::vector<size_t> lengths = {0, 1, bytes_->size() - 1};
  for (size_t i = 0; i < 40; ++i) {
    lengths.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bytes_->size()) - 1)));
  }
  for (size_t len : lengths) {
    WriteRawFile(corrupt_path, bytes_->substr(0, len));
    auto loaded = core::PrestroidPipeline::LoadFile(corrupt_path);
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
        << "prefix length " << len;
  }
}

TEST_F(PipelineLoadTest, MissingSectionReportsCorruption) {
  // A structurally valid container missing a required section (e.g. written
  // by incompatible code, or a renamed section surviving decode) must be
  // rejected at load, not half-initialized.
  auto sections = DecodeArtifact(*bytes_).ValueOrDie();
  for (const std::string victim : {"meta", "embed", "model"}) {
    std::vector<ArtifactSection> pruned;
    for (const ArtifactSection& s : sections) {
      if (s.name != victim) pruned.push_back(s);
    }
    ASSERT_EQ(pruned.size(), sections.size() - 1);
    const std::string pruned_path = TempPath("pipeline_missing_section.bin");
    WriteRawFile(pruned_path, EncodeArtifact(pruned));
    auto loaded = core::PrestroidPipeline::LoadFile(pruned_path);
    ASSERT_FALSE(loaded.ok()) << "missing section " << victim;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
        << "missing section " << victim;
  }
}

}  // namespace
}  // namespace prestroid
