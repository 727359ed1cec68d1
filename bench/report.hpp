// One JSON writer and gate registry for the bench binaries and tools
// (standard library only, so tools can include it too):
//
//   bench::Report report("api_hotpath");
//   report.field("ops", ops).field("speedup", speedup, 2);
//   report.array("arms").object().field("name", "splice");
//   report.gate(speedup >= 5.0, "speedup %.2fx below 5x", speedup);
//   return report.finish(json_path);
//
// Members render in insertion order, two-space indented. A double is
// written with the precision its call site names ("%.*f"); a non-finite
// one as null, since JSON has no "nan".
#pragma once

#include <cmath>
#include <concepts>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wtc::bench {

/// `text` as a JSON string literal, quotes included.
inline std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// A JSON object or array under construction. On an array the keys are
/// ignored, so `field({}, ...)`, `object()` and `array()` append elements.
class Json {
 public:
  Json& field(std::string_view key, std::string_view value) {
    return add(key, json_quote(value));
  }
  template <std::same_as<bool> Bool>
  Json& field(std::string_view key, Bool value) {
    return add(key, value ? "true" : "false");
  }
  template <std::integral Int>
    requires(!std::same_as<Int, bool>)
  Json& field(std::string_view key, Int value) {
    return add(key, std::to_string(value));
  }
  Json& field(std::string_view key, double value, int precision) {
    char text[512] = "null";  // DBL_MAX at "%.0f" is 309 digits
    if (std::isfinite(value)) {
      std::snprintf(text, sizeof text, "%.*f", precision, value);
    }
    return add(key, text);
  }

  /// A nested object or array as member `key`; the reference stays valid
  /// for the life of this node.
  Json& object(std::string_view key = {}) { return child(key, false); }
  Json& array(std::string_view key = {}) { return child(key, true); }

  /// The document, without a trailing newline.
  std::string str() const {
    std::string out;
    render(out, 0);
    return out;
  }

 private:
  struct Member {
    std::string key;
    std::string text;             // rendered scalar, unless child is set
    std::unique_ptr<Json> child;  // nested object or array
  };

  Json& add(std::string_view key, std::string text) {
    members_.push_back({std::string(key), std::move(text), nullptr});
    return *this;
  }

  Json& child(std::string_view key, bool is_array) {
    members_.push_back({std::string(key), {}, std::make_unique<Json>()});
    members_.back().child->is_array_ = is_array;
    return *members_.back().child;
  }

  void render(std::string& out, std::size_t depth) const {
    out += is_array_ ? '[' : '{';
    for (std::size_t i = 0; i < members_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n") + std::string(2 * depth + 2, ' ');
      if (!is_array_) {
        out += json_quote(members_[i].key) + ": ";
      }
      if (members_[i].child) {
        members_[i].child->render(out, depth + 1);
      } else {
        out += members_[i].text;
      }
    }
    if (!members_.empty()) {
      out += '\n' + std::string(2 * depth, ' ');
    }
    out += is_array_ ? ']' : '}';
  }

  bool is_array_ = false;
  std::vector<Member> members_;
};

/// A bench's result document plus its gate registry. It opens with
/// `"bench": <name>`; `finish` closes it with `"gates_passed"` and the
/// `"failures"` array (empty when every gate passed).
class Report : public Json {
 public:
  explicit Report(std::string_view bench) { field("bench", bench); }

  /// Registers one gate. A failing gate records its message, formatted
  /// printf-style (truncated to 1023 bytes). Returns `pass`.
  [[gnu::format(printf, 3, 4)]] bool gate(bool pass, const char* format, ...) {
    if (!pass) {
      char message[1024];
      std::va_list args;
      va_start(args, format);
      std::vsnprintf(message, sizeof message, format, args);
      va_end(args);
      failures_.emplace_back(message);
    }
    return pass;
  }

  /// Appends the verdict and writes the document to `json_path` (an
  /// unwritable path is a warning, not a failed gate). Prints
  /// `GATE FAILED: <message>` to stderr per failed gate and returns the
  /// process exit code: 0 when every gate passed, else 1.
  int finish(const std::string& json_path) {
    field("gates_passed", failures_.empty());
    Json& failures = array("failures");
    for (const std::string& message : failures_) {
      failures.field({}, message);
    }
    bool written = false;
    if (std::FILE* file = std::fopen(json_path.c_str(), "w")) {
      written = std::fprintf(file, "%s\n", str().c_str()) >= 0;
      written = std::fclose(file) == 0 && written;
    }
    if (written) {
      std::printf("(json written to %s)\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    }
    for (const std::string& message : failures_) {
      std::fprintf(stderr, "GATE FAILED: %s\n", message.c_str());
    }
    return failures_.empty() ? 0 : 1;
  }

 private:
  std::vector<std::string> failures_;
};

}  // namespace wtc::bench
