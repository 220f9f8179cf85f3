// Minimal JSON emitter for perfbench_driver's raw-result file (read by run.py).
// Numbers are written with 17 significant digits so every double
// round-trips exactly; non-finite values are written as NaN/Infinity,
// which Python's json module accepts.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonOut {
 public:
  JsonOut& begin_object(const char* key = nullptr) {
    open(key, '{');
    return *this;
  }
  JsonOut& end_object() {
    close('}');
    return *this;
  }
  JsonOut& begin_array(const char* key = nullptr) {
    open(key, '[');
    return *this;
  }
  JsonOut& end_array() {
    close(']');
    return *this;
  }

  JsonOut& num(const char* key, double v) {
    sep(key);
    s_ += number(v);
    return *this;
  }
  JsonOut& num(double v) { return num(nullptr, v); }

  JsonOut& boolean(const char* key, bool v) {
    sep(key);
    s_ += v ? "true" : "false";
    return *this;
  }

  JsonOut& str(const char* key, const std::string& v) {
    sep(key);
    quote(v);
    return *this;
  }

  JsonOut& nums(const char* key, const std::vector<double>& vs) {
    begin_array(key);
    for (double v : vs) num(v);
    return end_array();
  }

  JsonOut& ints(const char* key, const std::vector<int>& vs) {
    begin_array(key);
    for (int v : vs) num(static_cast<double>(v));
    return end_array();
  }

  const std::string& text() const { return s_; }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(s_.data(), 1, s_.size(), f) == s_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static std::string number(double v) {
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  void quote(const std::string& v) {
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        s_ += '\\';
        s_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        s_ += ' ';
      } else {
        s_ += c;
      }
    }
    s_ += '"';
  }

  void sep(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) s_ += ',';
      first_.back() = false;
    }
    if (key != nullptr) {
      quote(key);
      s_ += ':';
    }
  }

  void open(const char* key, char bracket) {
    sep(key);
    s_ += bracket;
    first_.push_back(true);
  }

  void close(char bracket) {
    s_ += bracket;
    first_.pop_back();
  }

  std::string s_;
  std::vector<bool> first_;
};

}  // namespace perfbench
