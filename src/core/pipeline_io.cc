// Serialization of a fitted PrestroidPipeline (see pipeline.h).
//
// On-disk layout (v2) is the crash-safe artifact container of
// util/artifact_io.h — magic + version header, three CRC32-checksummed
// sections, atomic temp-file + fsync + rename publication:
//
//   meta   — config scalars, conv/dense size lists, label transform,
//            full-tree padding size
//   embed  — embedded Word2Vec dump, OOV fallback vector, operator and
//            table vocabularies
//   model  — trained weights + non-trainable state tensors
//
// Section payloads are the v1 text records (labels and tokens never contain
// whitespace, so stream extraction round-trips them safely). Files written
// by the pre-container v1 format ("PRESTROID_PIPELINE v1" + the same records
// in sequence) are still loadable; any corrupted v2 file is rejected with
// StatusCode::kDataCorruption before a single weight is deserialized.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/pipeline.h"
#include "util/artifact_io.h"
#include "util/logging.h"

namespace prestroid::core {

namespace {

constexpr char kLegacyMagic[] = "PRESTROID_PIPELINE";
constexpr char kV2Magic[] = "PRESTROID_ARTIFACT";

void DumpSizeList(std::ostream& os, const char* tag,
                  const std::vector<size_t>& values) {
  os << tag << " " << values.size();
  for (size_t v : values) os << " " << v;
  os << "\n";
}

// The legacy v1 body has no CRC, so counts read from it are attacker-ish
// input: a corrupted count must not drive an allocation or a spin loop.
// No real list or vocabulary comes anywhere near this bound.
constexpr size_t kMaxSerializedEntries = 1u << 24;

Status ReadSizeList(std::istream& is, const char* tag,
                    std::vector<size_t>* out) {
  std::string label;
  size_t count = 0;
  is >> label >> count;
  if (!is.good() || label != tag) {
    return Status::ParseError(std::string("expected list tag ") + tag);
  }
  if (count > kMaxSerializedEntries) {
    return Status::DataCorruption(std::string("implausible length for list ") +
                                  tag);
  }
  out->resize(count);
  for (size_t& v : *out) is >> v;
  if (is.fail()) return Status::ParseError("truncated size list");
  return Status::OK();
}

void DumpVocab(std::ostream& os, const char* tag,
               const std::map<std::string, size_t>& vocab) {
  os << tag << " " << vocab.size();
  for (const auto& [label, id] : vocab) os << " " << label << " " << id;
  os << "\n";
}

Status ReadVocab(std::istream& is, const char* tag,
                 std::map<std::string, size_t>* out) {
  std::string label;
  size_t count = 0;
  is >> label >> count;
  if (!is.good() || label != tag) {
    return Status::ParseError(std::string("expected vocab tag ") + tag);
  }
  if (count > kMaxSerializedEntries) {
    return Status::DataCorruption(std::string("implausible size for vocab ") +
                                  tag);
  }
  for (size_t i = 0; i < count; ++i) {
    std::string key;
    size_t id = 0;
    is >> key >> id;
    // Fail per entry: a truncated stream must end the loop, not spin `count`
    // times inserting empty keys.
    if (is.fail()) return Status::ParseError("truncated vocabulary");
    out->emplace(std::move(key), id);
  }
  return Status::OK();
}

}  // namespace

/// Friend of PrestroidPipeline: stateless dump/parse helpers shared between
/// the v2 container writer/reader and the legacy v1 reader.
struct PipelineSerde {
  static void DumpConfig(const PrestroidPipeline& p, std::ostream& os) {
    const PipelineConfig& config = p.config_;
    os << "config " << (config.use_subtrees ? 1 : 0) << " "
       << static_cast<int>(config.pruning) << " " << config.num_subtrees << " "
       << config.sampler.node_limit << " " << config.sampler.conv_layers << " "
       << config.word2vec.dim << " " << config.dropout << " "
       << (config.batch_norm ? 1 : 0) << " " << config.learning_rate << " "
       << config.seed << "\n";
    DumpSizeList(os, "conv_channels", config.conv_channels);
    DumpSizeList(os, "dense_units", config.dense_units);
    os << "transform " << p.transform_.log_min() << " "
       << p.transform_.log_max() << "\n";
  }

  static Status ParseConfig(std::istream& is, PrestroidPipeline* p) {
    PipelineConfig& config = p->config_;
    std::string tag;
    int use_subtrees = 0, pruning = 0, batch_norm = 0;
    is >> tag >> use_subtrees >> pruning >> config.num_subtrees >>
        config.sampler.node_limit >> config.sampler.conv_layers >>
        config.word2vec.dim >> config.dropout >> batch_norm >>
        config.learning_rate >> config.seed;
    if (!is.good() || tag != "config") {
      return Status::ParseError("bad pipeline config header");
    }
    config.use_subtrees = use_subtrees != 0;
    config.pruning = static_cast<subtree::PruningStrategy>(pruning);
    config.batch_norm = batch_norm != 0;
    PRESTROID_RETURN_NOT_OK(
        ReadSizeList(is, "conv_channels", &config.conv_channels));
    PRESTROID_RETURN_NOT_OK(
        ReadSizeList(is, "dense_units", &config.dense_units));
    // A CRC-valid file can still carry values the model constructor would
    // CHECK-fail on; reject them here so a bad candidate is a Status, never
    // an abort of the serving process. Full-tree pipelines build with K = 1
    // and N = full_max_nodes (checked in ReadFullMaxNodes) instead.
    if (config.use_subtrees &&
        (config.num_subtrees == 0 || config.sampler.node_limit == 0)) {
      return Status::DataCorruption("zero sub-tree count or node limit");
    }
    if (pruning < static_cast<int>(subtree::PruningStrategy::kAlgorithm1) ||
        pruning > static_cast<int>(subtree::PruningStrategy::kDepthFirst)) {
      return Status::DataCorruption("unknown pruning strategy " +
                                    std::to_string(pruning));
    }
    auto has_zero = [](const std::vector<size_t>& v) {
      return std::find(v.begin(), v.end(), 0u) != v.end();
    };
    if (config.conv_channels.empty() || has_zero(config.conv_channels) ||
        has_zero(config.dense_units)) {
      return Status::DataCorruption("empty or zero-width layer list");
    }

    double log_min = 0, log_max = 1;
    is >> tag >> log_min >> log_max;
    if (!is.good() || tag != "transform") {
      return Status::ParseError("bad transform record");
    }
    // Re-fit the transform from its endpoints (log of the stored bounds).
    return p->transform_.Fit({std::exp(log_min), std::exp(log_max)});
  }

  static void DumpEmbeddings(const PrestroidPipeline& p, std::ostream& os) {
    p.word2vec_->Serialize(os);
    const std::vector<float>& fallback = p.predicate_encoder_->global_fallback();
    os << "fallback " << fallback.size();
    for (float v : fallback) os << " " << v;
    os << "\n";
    DumpVocab(os, "operators", p.encoder_->operator_ids());
    DumpVocab(os, "tables", p.encoder_->table_ids());
  }

  static Status ParseEmbeddings(std::istream& is, PrestroidPipeline* p) {
    p->word2vec_ = std::make_unique<embed::Word2Vec>();
    PRESTROID_RETURN_NOT_OK(p->word2vec_->Restore(is));

    p->predicate_encoder_ =
        std::make_unique<embed::PredicateEncoder>(p->word2vec_.get());
    std::string tag;
    size_t fallback_size = 0;
    is >> tag >> fallback_size;
    if (!is.good() || tag != "fallback") {
      return Status::ParseError("bad fallback record");
    }
    std::vector<float> fallback(fallback_size);
    for (float& v : fallback) is >> v;
    p->predicate_encoder_->RestoreGlobalFallback(std::move(fallback));

    p->encoder_ =
        std::make_unique<otp::OtpEncoder>(p->predicate_encoder_.get());
    std::map<std::string, size_t> operators, tables;
    PRESTROID_RETURN_NOT_OK(ReadVocab(is, "operators", &operators));
    PRESTROID_RETURN_NOT_OK(ReadVocab(is, "tables", &tables));
    p->encoder_->RestoreVocabulary(std::move(operators), std::move(tables));
    p->featurizer_ = std::make_unique<Featurizer>(
        p->encoder_.get(), p->predicate_encoder_.get());
    return Status::OK();
  }

  /// Rebuilds the model skeleton with the fitted vocabularies' feature
  /// width; `full_max_nodes` is the stored padding size (full-tree only).
  static void BuildModelSkeleton(PrestroidPipeline* p, size_t full_max_nodes) {
    // Serving default: loaded pipelines run single-threaded. The `threads`
    // knob is runtime-only and never serialized, so config_.threads == 1.
    p->exec_ctx_ = std::make_unique<ExecutionContext>(1);
    p->BuildModel(full_max_nodes);
  }

  static void DumpModel(PrestroidPipeline& p, std::ostream& os) {
    auto dump_tensors = [&os](const char* tag, std::vector<ParamRef> refs) {
      os << tag << " " << refs.size() << "\n";
      for (const ParamRef& ref : refs) {
        os << ref.name << " " << ref.value->size();
        for (size_t i = 0; i < ref.value->size(); ++i) {
          os << " " << (*ref.value)[i];
        }
        os << "\n";
      }
    };
    dump_tensors("weights", p.model()->Params());
    dump_tensors("state", p.model()->State());
  }

  /// Restores the trained weights (and non-trainable buffers) into the
  /// freshly built tensors.
  static Status ParseModel(std::istream& is, PrestroidPipeline* p) {
    auto read_tensors = [&is](const char* expected_tag,
                              std::vector<ParamRef> refs) -> Status {
      std::string header;
      size_t count = 0;
      is >> header >> count;
      if (!is.good() || header != expected_tag) {
        return Status::ParseError(std::string("bad tensor section ") +
                                  expected_tag);
      }
      if (refs.size() != count) {
        return Status::ParseError(
            "tensor count mismatch: file does not match the rebuilt "
            "architecture");
      }
      for (ParamRef& ref : refs) {
        std::string name;
        size_t numel = 0;
        is >> name >> numel;
        if (!is.good() || numel != ref.value->size()) {
          return Status::ParseError("tensor shape mismatch for " + ref.name);
        }
        for (size_t i = 0; i < numel; ++i) is >> (*ref.value)[i];
      }
      if (is.fail()) return Status::ParseError("truncated tensor section");
      return Status::OK();
    };
    PRESTROID_RETURN_NOT_OK(read_tensors("weights", p->model()->Params()));
    return read_tensors("state", p->model()->State());
  }

  static Status ReadFullMaxNodes(std::istream& is, size_t* out) {
    std::string tag;
    is >> tag >> *out;
    if (!is.good() || tag != "full_max_nodes") {
      return Status::ParseError("bad full_max_nodes record");
    }
    // It becomes the model's padding size N, which must be positive.
    if (*out == 0) return Status::DataCorruption("zero full_max_nodes");
    return Status::OK();
  }

  /// Reads the pre-container v1 body (magic line already consumed). Kept so
  /// artifacts written before the crash-safe format remain loadable.
  static Result<std::unique_ptr<PrestroidPipeline>> ParseLegacyV1(
      std::istream& is) {
    auto pipeline = std::unique_ptr<PrestroidPipeline>(new PrestroidPipeline());
    PRESTROID_RETURN_NOT_OK(ParseConfig(is, pipeline.get()));
    PRESTROID_RETURN_NOT_OK(ParseEmbeddings(is, pipeline.get()));
    size_t full_max_nodes = 0;
    if (!pipeline->config_.use_subtrees) {
      PRESTROID_RETURN_NOT_OK(ReadFullMaxNodes(is, &full_max_nodes));
    }
    BuildModelSkeleton(pipeline.get(), full_max_nodes);
    PRESTROID_RETURN_NOT_OK(ParseModel(is, pipeline.get()));
    return pipeline;
  }
};

Status PrestroidPipeline::SaveFile(const std::string& path) {
  std::ostringstream meta, embed, model_section;
  meta.precision(9);
  embed.precision(9);
  model_section.precision(9);

  PipelineSerde::DumpConfig(*this, meta);
  if (!config_.use_subtrees) {
    meta << "full_max_nodes " << model_->config().node_limit << "\n";
  }
  PipelineSerde::DumpEmbeddings(*this, embed);
  PipelineSerde::DumpModel(*this, model_section);

  return WriteArtifactFile(path, {{"meta", meta.str()},
                                  {"embed", embed.str()},
                                  {"model", model_section.str()}});
}

Result<std::unique_ptr<PrestroidPipeline>> PrestroidPipeline::LoadFile(
    const std::string& path) {
  PRESTROID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));

  if (bytes.rfind(kLegacyMagic, 0) == 0) {
    std::istringstream is(bytes);
    std::string magic, version;
    is >> magic >> version;
    if (version != "v1") {
      return Status::DataCorruption("unsupported legacy pipeline version: " +
                                    version);
    }
    return PipelineSerde::ParseLegacyV1(is);
  }
  if (bytes.rfind(kV2Magic, 0) != 0) {
    return Status::DataCorruption("not a Prestroid pipeline artifact: " + path);
  }

  // v2 container: every section is CRC-validated before any parsing, so a
  // truncated or bit-flipped file is rejected here with kDataCorruption and
  // never reaches the weight deserializer.
  PRESTROID_ASSIGN_OR_RETURN(std::vector<ArtifactSection> sections,
                             DecodeArtifact(bytes));
  PRESTROID_ASSIGN_OR_RETURN(const ArtifactSection* meta,
                             FindSection(sections, "meta"));
  PRESTROID_ASSIGN_OR_RETURN(const ArtifactSection* embed,
                             FindSection(sections, "embed"));
  PRESTROID_ASSIGN_OR_RETURN(const ArtifactSection* model_section,
                             FindSection(sections, "model"));

  auto pipeline = std::unique_ptr<PrestroidPipeline>(new PrestroidPipeline());
  std::istringstream meta_is(meta->payload);
  PRESTROID_RETURN_NOT_OK(PipelineSerde::ParseConfig(meta_is, pipeline.get()));
  size_t full_max_nodes = 0;
  if (!pipeline->config_.use_subtrees) {
    PRESTROID_RETURN_NOT_OK(
        PipelineSerde::ReadFullMaxNodes(meta_is, &full_max_nodes));
  }
  std::istringstream embed_is(embed->payload);
  PRESTROID_RETURN_NOT_OK(
      PipelineSerde::ParseEmbeddings(embed_is, pipeline.get()));
  PipelineSerde::BuildModelSkeleton(pipeline.get(), full_max_nodes);
  std::istringstream model_is(model_section->payload);
  PRESTROID_RETURN_NOT_OK(PipelineSerde::ParseModel(model_is, pipeline.get()));
  return pipeline;
}

}  // namespace prestroid::core
