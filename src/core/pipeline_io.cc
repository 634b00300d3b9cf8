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
// Section payloads are the v1 text records: whitespace-separated words and
// numbers, each record ending in '\n' (labels and tokens never contain
// whitespace). They are parsed in place by one util/text_cursor.h cursor,
// which v2 sections and the legacy body share. Files written by the
// pre-container v1 format ("PRESTROID_PIPELINE v1" + the same records in
// sequence) are still loadable; any corrupted v2 file is rejected with
// StatusCode::kDataCorruption before a single weight is deserialized.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/pipeline.h"
#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/text_cursor.h"

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

Status ReadSizeList(TextCursor& in, const char* tag,
                    std::vector<size_t>* out) {
  size_t count = 0;
  if (!in.Expect(tag) || !in.Number(&count)) {
    return Status::ParseError(std::string("expected list tag ") + tag);
  }
  if (count > kMaxSerializedEntries) {
    return Status::DataCorruption(std::string("implausible length for list ") +
                                  tag);
  }
  out->resize(count);
  for (size_t& v : *out) {
    if (!in.Number(&v)) return Status::ParseError("truncated size list");
  }
  return Status::OK();
}

void DumpVocab(std::ostream& os, const char* tag,
               const std::map<std::string, size_t>& vocab) {
  os << tag << " " << vocab.size();
  for (const auto& [label, id] : vocab) os << " " << label << " " << id;
  os << "\n";
}

Status ReadVocab(TextCursor& in, const char* tag,
                 std::map<std::string, size_t>* out) {
  size_t count = 0;
  if (!in.Expect(tag) || !in.Number(&count)) {
    return Status::ParseError(std::string("expected vocab tag ") + tag);
  }
  if (count > kMaxSerializedEntries) {
    return Status::DataCorruption(std::string("implausible size for vocab ") +
                                  tag);
  }
  // An id is its label's slot in a one-hot block of count + 1 floats
  // (OtpEncoder::EncodeNode writes there), so the ids must be exactly
  // 0..count-1, each once, under distinct labels.
  std::vector<bool> seen(count, false);
  for (size_t i = 0; i < count; ++i) {
    std::string_view key;
    size_t id = 0;
    // Fail per entry: a truncated section must end the loop, not spin
    // `count` times.
    if (!in.Word(&key) || !in.Number(&id)) {
      return Status::ParseError("truncated vocabulary");
    }
    if (id >= count || seen[id] || !out->emplace(key, id).second) {
      return Status::DataCorruption(std::string("vocabulary ") + tag +
                                    " ids are not 0..n-1 over distinct labels");
    }
    seen[id] = true;
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

  static Status ParseConfig(TextCursor& in, PrestroidPipeline* p) {
    PipelineConfig& config = p->config_;
    int use_subtrees = 0, pruning = 0, batch_norm = 0;
    if (!in.Expect("config") || !in.Number(&use_subtrees) ||
        !in.Number(&pruning) || !in.Number(&config.num_subtrees) ||
        !in.Number(&config.sampler.node_limit) ||
        !in.Number(&config.sampler.conv_layers) ||
        !in.Number(&config.word2vec.dim) || !in.Number(&config.dropout) ||
        !in.Number(&batch_norm) || !in.Number(&config.learning_rate) ||
        !in.Number(&config.seed)) {
      return Status::ParseError("bad pipeline config header");
    }
    config.use_subtrees = use_subtrees != 0;
    config.pruning = static_cast<subtree::PruningStrategy>(pruning);
    config.batch_norm = batch_norm != 0;
    PRESTROID_RETURN_NOT_OK(
        ReadSizeList(in, "conv_channels", &config.conv_channels));
    PRESTROID_RETURN_NOT_OK(
        ReadSizeList(in, "dense_units", &config.dense_units));
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
    if (!in.Expect("transform") || !in.Number(&log_min) ||
        !in.Number(&log_max)) {
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

  static Status ParseEmbeddings(TextCursor& in, PrestroidPipeline* p) {
    p->word2vec_ = std::make_unique<embed::Word2Vec>();
    PRESTROID_RETURN_NOT_OK(p->word2vec_->Restore(in));

    p->predicate_encoder_ =
        std::make_unique<embed::PredicateEncoder>(p->word2vec_.get());
    size_t fallback_size = 0;
    if (!in.Expect("fallback") || !in.Number(&fallback_size)) {
      return Status::ParseError("bad fallback record");
    }
    // PredicateEncoder::Embed copies dim() floats out of a non-empty
    // fallback, so any other length would be read past its end.
    if (fallback_size != 0 && fallback_size != p->word2vec_->dim()) {
      return Status::DataCorruption(
          "fallback vector of " + std::to_string(fallback_size) +
          " floats for a " + std::to_string(p->word2vec_->dim()) +
          "-dim embedding");
    }
    std::vector<float> fallback(fallback_size);
    for (float& v : fallback) {
      if (!in.Number(&v)) return Status::ParseError("bad fallback record");
    }
    p->predicate_encoder_->RestoreGlobalFallback(std::move(fallback));

    p->encoder_ =
        std::make_unique<otp::OtpEncoder>(p->predicate_encoder_.get());
    std::map<std::string, size_t> operators, tables;
    PRESTROID_RETURN_NOT_OK(ReadVocab(in, "operators", &operators));
    PRESTROID_RETURN_NOT_OK(ReadVocab(in, "tables", &tables));
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
  static Status ParseModel(TextCursor& in, PrestroidPipeline* p) {
    auto read_tensors = [&in](const char* expected_tag,
                              std::vector<ParamRef> refs) -> Status {
      size_t count = 0;
      if (!in.Expect(expected_tag) || !in.Number(&count)) {
        return Status::ParseError(std::string("bad tensor section ") +
                                  expected_tag);
      }
      if (refs.size() != count) {
        return Status::ParseError(
            "tensor count mismatch: file does not match the rebuilt "
            "architecture");
      }
      for (ParamRef& ref : refs) {
        std::string_view name;
        size_t numel = 0;
        if (!in.Word(&name) || !in.Number(&numel) ||
            numel != ref.value->size()) {
          return Status::ParseError("tensor shape mismatch for " + ref.name);
        }
        float* values = ref.value->data();
        for (size_t i = 0; i < numel; ++i) {
          if (!in.Number(&values[i])) {
            return Status::ParseError("truncated tensor section");
          }
        }
      }
      return Status::OK();
    };
    PRESTROID_RETURN_NOT_OK(read_tensors("weights", p->model()->Params()));
    return read_tensors("state", p->model()->State());
  }

  static Status ReadFullMaxNodes(TextCursor& in, size_t* out) {
    if (!in.Expect("full_max_nodes") || !in.Number(out)) {
      return Status::ParseError("bad full_max_nodes record");
    }
    // It becomes the model's padding size N, which must be positive.
    if (*out == 0) return Status::DataCorruption("zero full_max_nodes");
    return Status::OK();
  }

  /// Reads the pre-container v1 body (magic line already consumed). Kept so
  /// artifacts written before the crash-safe format remain loadable.
  static Result<std::unique_ptr<PrestroidPipeline>> ParseLegacyV1(
      TextCursor& in) {
    auto pipeline = std::unique_ptr<PrestroidPipeline>(new PrestroidPipeline());
    PRESTROID_RETURN_NOT_OK(ParseConfig(in, pipeline.get()));
    PRESTROID_RETURN_NOT_OK(ParseEmbeddings(in, pipeline.get()));
    size_t full_max_nodes = 0;
    if (!pipeline->config_.use_subtrees) {
      PRESTROID_RETURN_NOT_OK(ReadFullMaxNodes(in, &full_max_nodes));
    }
    BuildModelSkeleton(pipeline.get(), full_max_nodes);
    PRESTROID_RETURN_NOT_OK(ParseModel(in, pipeline.get()));
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
    TextCursor in(bytes);
    std::string_view magic, version;  // the magic word was matched above
    if (!in.Word(&magic) || !in.Word(&version) || version != "v1") {
      return Status::DataCorruption("unsupported legacy pipeline version: " +
                                    std::string(version));
    }
    return PipelineSerde::ParseLegacyV1(in);
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
  TextCursor meta_in(meta->payload);
  PRESTROID_RETURN_NOT_OK(PipelineSerde::ParseConfig(meta_in, pipeline.get()));
  size_t full_max_nodes = 0;
  if (!pipeline->config_.use_subtrees) {
    PRESTROID_RETURN_NOT_OK(
        PipelineSerde::ReadFullMaxNodes(meta_in, &full_max_nodes));
  }
  TextCursor embed_in(embed->payload);
  PRESTROID_RETURN_NOT_OK(
      PipelineSerde::ParseEmbeddings(embed_in, pipeline.get()));
  PipelineSerde::BuildModelSkeleton(pipeline.get(), full_max_nodes);
  TextCursor model_in(model_section->payload);
  PRESTROID_RETURN_NOT_OK(PipelineSerde::ParseModel(model_in, pipeline.get()));
  return pipeline;
}

}  // namespace prestroid::core
