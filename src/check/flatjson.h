// Minimal hand-rolled JSON scanner shared by the repo's artifact codecs.
//
// Grown out of the trace codec's flat-object scanner (check/trace.cc), now
// a small recursive value model so the scenario-file and baseline codecs
// (harness/scenariofile.h, harness/gate.h) can parse the same dialect:
// objects, arrays, strings, numbers and booleans — no null, no non-ASCII
// escapes above 0xFF, numbers kept as raw tokens until a typed accessor
// converts them. Newlines count as whitespace, so one parse() call handles
// both a single JSONL record and a pretty-printed multi-line document.
//
// The typed accessors carry the error discipline every codec here shares:
// failures name the offending key ("field 'nodes' is not an integer") so a
// caller can prefix file/line context and surface the message as-is.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lifeguard::check::flatjson {

struct Value {
  enum class Kind { kString, kNumber, kBool, kArray, kObject };
  Kind kind = Kind::kString;
  /// Unescaped string contents, or the raw number token ("12", "0.5",
  /// "1e-3"). Typed accessors parse the token; strings holding numbers
  /// (e.g. the seed convention "seed": "1") convert the same way.
  std::string text;
  bool boolean = false;
  std::vector<Value> array;
  /// Object members in file order (duplicate keys keep the first).
  std::vector<std::pair<std::string, Value>> members;

  /// First member named `key`; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Deepest object/array nesting parse() accepts; the top-level object is
/// depth 1. Committed artifacts nest at most five deep.
inline constexpr int kMaxDepth = 64;

/// Parse one complete JSON document from `text`. The document must be a
/// single object; trailing non-whitespace is an error. False + `error`
/// (with a short reason) on malformed input, including "nesting deeper
/// than 64".
bool parse(std::string_view text, Value& out, std::string& error);

// ---- typed member accessors ----
// All take an object Value. Optional fields (`required = false`) leave
// `out` untouched when the key is absent and return true.

bool get_i64(const Value& obj, const std::string& key, std::int64_t& out,
             std::string& error, bool required = true);
bool get_u64(const Value& obj, const std::string& key, std::uint64_t& out,
             std::string& error, bool required = true);
bool get_dbl(const Value& obj, const std::string& key, double& out,
             std::string& error, bool required = true);
bool get_str(const Value& obj, const std::string& key, std::string& out,
             std::string& error, bool required = true);
bool get_bool(const Value& obj, const std::string& key, bool& out,
              std::string& error, bool required = true);
/// Array of strings ("timeline": ["block@0us:16000000us,victims=4"]).
bool get_string_array(const Value& obj, const std::string& key,
                      std::vector<std::string>& out, std::string& error,
                      bool required = true);

}  // namespace lifeguard::check::flatjson
