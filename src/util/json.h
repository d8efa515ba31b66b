// The one JSON writer behind every document the tree renders: the stats
// snapshot, the metrics scrape, the Chrome trace, the flight recorder and
// the BENCH_*.json rows.
//
// Format rules, kept here and nowhere else:
//   - compact separators (`{"a":1,"b":[2,3]}`), no whitespace;
//   - strings escape `"` `\` \b \f \n \r \t, and every other byte below
//     0x20 as \u00XX; bytes >= 0x20 pass through unchanged;
//   - doubles print with %.17g, so they round-trip exactly, and a
//     non-finite double prints as null;
//   - integers print exactly, signed or unsigned, across the full 64 bits.
//
// The writer appends tokens in call order and tracks commas with a stack of
// open containers; it holds no keys and never sorts, so the caller decides
// key and element order. Calls must nest correctly (a Key before each
// value inside an object, every Begin matched by its End).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace rfid {
namespace json {

class Writer {
 public:
  Writer& BeginObject() { return Open('{'); }
  Writer& EndObject() { return Close('}'); }
  Writer& BeginArray() { return Open('['); }
  Writer& EndArray() { return Close(']'); }

  Writer& Key(std::string_view key) {
    String(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Writer& String(std::string_view s) {
    Separate();
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
    return *this;
  }

  Writer& Int(int64_t v) { return Literal(std::to_string(v)); }
  Writer& Uint(uint64_t v) { return Literal(std::to_string(v)); }
  Writer& Double(double v) {
    if (!std::isfinite(v)) return Literal("null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Literal(buf);
  }
  Writer& Bool(bool v) { return Literal(v ? "true" : "false"); }

  /// The document written so far.
  const std::string& str() const { return out_; }

 private:
  // Writes the comma owed before a value, unless it follows its key or
  // opens its container.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
    } else if (!open_.empty()) {
      if (open_.back()) out_ += ',';
      open_.back() = true;
    }
  }

  Writer& Open(char bracket) {
    Separate();
    out_ += bracket;
    open_.push_back(false);
    return *this;
  }

  Writer& Close(char bracket) {
    assert(!open_.empty() && !after_key_);
    open_.pop_back();
    out_ += bracket;
    return *this;
  }

  Writer& Literal(std::string_view text) {
    Separate();
    out_ += text;
    return *this;
  }

  std::string out_;
  std::vector<bool> open_;  // per open container: has it a member yet?
  bool after_key_ = false;
};

}  // namespace json
}  // namespace rfid
