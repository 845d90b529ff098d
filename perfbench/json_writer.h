// Minimal streaming JSON writer for the driver's raw measurement file.
#ifndef PERFBENCH_JSON_WRITER_H_
#define PERFBENCH_JSON_WRITER_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& key) {
    Separate();
    AppendString(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& Number(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& String(const std::string& v) {
    Separate();
    AppendString(v);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void AppendString(const std::string& s) {
    out_ += '"';
    for (char ch : s) {
      const unsigned char u = static_cast<unsigned char>(ch);
      if (ch == '"' || ch == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (u < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", u);
        out_ += buf;
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_WRITER_H_
