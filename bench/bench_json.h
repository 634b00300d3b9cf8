#ifndef PRESTROID_BENCH_BENCH_JSON_H_
#define PRESTROID_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace prestroid::bench {

/// Minimal streaming JSON emitter shared by the benchmark harnesses
/// (micro_ops --json, chaos_net), so every BENCH_*.json artifact
/// gets the same escaping, indentation, and number formatting. Keys are
/// written in insertion order — the emission order IS the key order, which
/// keeps artifact diffs stable across runs.
///
/// Usage is push-down: Begin*/End* must nest correctly, and inside an
/// object every value must be preceded by Key(). The writer asserts (via
/// CHECK) on malformed nesting rather than emitting broken JSON.
class JsonWriter {
 public:
  /// Writes to `out`; the caller keeps ownership of the stream. Output is
  /// pretty-printed with 2-space indents.
  explicit JsonWriter(std::ostream& out);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits an object key; the next call must emit its value.
  void Key(const std::string& key);

  void String(const std::string& value);
  void Int(long long value);
  void UInt(unsigned long long value);
  /// printf-style format for the number, default "%.4f". The formatted text
  /// is emitted verbatim, so the format must produce a valid JSON number.
  void Double(double value, const char* fmt = "%.4f");
  void Bool(bool value);

  // Key + scalar in one call.
  void Field(const std::string& key, const std::string& value);
  void Field(const std::string& key, const char* value);
  void Field(const std::string& key, long long value);
  void Field(const std::string& key, unsigned long long value);
  void Field(const std::string& key, size_t value);
  void Field(const std::string& key, int value);
  void FieldDouble(const std::string& key, double value,
                   const char* fmt = "%.4f");

  /// JSON string escaping (quotes, backslash, control characters).
  static std::string Escape(const std::string& raw);

  /// Stamps run provenance into the current object — git SHA (the
  /// PRESTROID_GIT_SHA compile definition, "unknown" outside a git
  /// checkout), the blocked-GEMM ISA dispatch result ("avx2"/"base"), and
  /// the hardware thread count — so every BENCH_*.json records what built
  /// and ran it. Call inside the artifact's top-level object.
  void Provenance();

 private:
  enum class Scope { kTop, kObject, kArray };
  struct Frame {
    Scope scope;
    size_t items = 0;
  };

  /// Comma/newline/indent bookkeeping before a value or key is written.
  void BeforeValue();
  void Indent();

  std::ostream& out_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
};

}  // namespace prestroid::bench

#endif  // PRESTROID_BENCH_BENCH_JSON_H_
