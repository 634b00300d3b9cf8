#include "bench_json.h"

#include <thread>

#include "git_sha.h"

#include "tensor/kernels/gemm_kernels.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::bench {

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {
  stack_.push_back(Frame{Scope::kTop});
}

JsonWriter::~JsonWriter() {
  // The writer cannot fix an unterminated document from a destructor, but it
  // can flag it: a finished document is back at top level with one value.
  if (stack_.size() == 1 && stack_.back().items == 1) out_ << "\n";
}

std::string JsonWriter::Escape(const std::string& raw) {
  std::string escaped;
  escaped.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          escaped += StrFormat("\\u%04x", c);
        } else {
          escaped += c;
        }
        break;
    }
  }
  return escaped;
}

void JsonWriter::Indent() {
  for (size_t i = 1; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::BeforeValue() {
  Frame& frame = stack_.back();
  if (frame.scope == Scope::kObject && !pending_key_) {
    PRESTROID_CHECK(false);  // object value without a preceding Key()
  }
  if (pending_key_) {
    pending_key_ = false;
    return;  // Key() already wrote the separator and indent
  }
  if (frame.items > 0) out_ << ",";
  if (frame.scope != Scope::kTop) {
    out_ << "\n";
    Indent();
  }
}

void JsonWriter::Key(const std::string& key) {
  Frame& frame = stack_.back();
  PRESTROID_CHECK(frame.scope == Scope::kObject);
  PRESTROID_CHECK(!pending_key_);
  if (frame.items > 0) out_ << ",";
  out_ << "\n";
  Indent();
  out_ << "\"" << Escape(key) << "\": ";
  pending_key_ = true;
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ << "{";
  stack_.push_back(Frame{Scope::kObject});
}

void JsonWriter::EndObject() {
  PRESTROID_CHECK(stack_.back().scope == Scope::kObject);
  PRESTROID_CHECK(!pending_key_);
  const bool empty = stack_.back().items == 0;
  stack_.pop_back();
  if (!empty) {
    out_ << "\n";
    Indent();
  }
  out_ << "}";
  ++stack_.back().items;
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ << "[";
  stack_.push_back(Frame{Scope::kArray});
}

void JsonWriter::EndArray() {
  PRESTROID_CHECK(stack_.back().scope == Scope::kArray);
  const bool empty = stack_.back().items == 0;
  stack_.pop_back();
  if (!empty) {
    out_ << "\n";
    Indent();
  }
  out_ << "]";
  ++stack_.back().items;
}

void JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ << "\"" << Escape(value) << "\"";
  ++stack_.back().items;
}

void JsonWriter::Int(long long value) {
  BeforeValue();
  out_ << value;
  ++stack_.back().items;
}

void JsonWriter::UInt(unsigned long long value) {
  BeforeValue();
  out_ << value;
  ++stack_.back().items;
}

void JsonWriter::Double(double value, const char* fmt) {
  BeforeValue();
  out_ << StrFormat(fmt, value);
  ++stack_.back().items;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
  ++stack_.back().items;
}

void JsonWriter::Field(const std::string& key, const std::string& value) {
  Key(key);
  String(value);
}

void JsonWriter::Field(const std::string& key, const char* value) {
  Key(key);
  String(value);
}

void JsonWriter::Field(const std::string& key, long long value) {
  Key(key);
  Int(value);
}

void JsonWriter::Field(const std::string& key, unsigned long long value) {
  Key(key);
  UInt(value);
}

void JsonWriter::Field(const std::string& key, size_t value) {
  Key(key);
  UInt(static_cast<unsigned long long>(value));
}

void JsonWriter::Field(const std::string& key, int value) {
  Key(key);
  Int(value);
}

void JsonWriter::FieldDouble(const std::string& key, double value,
                             const char* fmt) {
  Key(key);
  Double(value, fmt);
}

void JsonWriter::Provenance() {
  Field("git_sha", PRESTROID_GIT_SHA);
  Field("gemm_isa", GemmBlockedIsaName());
  Field("hardware_threads",
        static_cast<size_t>(std::thread::hardware_concurrency()));
}

}  // namespace prestroid::bench
