#include "simgpu/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace cstf::simgpu {

namespace {

void accumulate(Tracer::Aggregate& agg, const TraceSpan& span) {
  agg.stats += span.stats;
  agg.wall_s += span.wall_s;
  agg.modeled_s += span.modeled_s;
  agg.spans += 1;
}

}  // namespace

std::string Tracer::joined_phase_locked() const {
  std::string out;
  for (const std::string& p : phase_stack_) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

void Tracer::begin_phase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_stack_.push_back(name);
  phase_start_.push_back(epoch_.seconds());
}

void Tracer::end_phase() {
  std::lock_guard<std::mutex> lock(mu_);
  CSTF_CHECK_MSG(!phase_stack_.empty(), "end_phase with no open phase");
  PhaseSpan span;
  span.phase = joined_phase_locked();
  span.start_s = phase_start_.back();
  span.wall_s = epoch_.seconds() - span.start_s;
  phase_spans_.push_back(std::move(span));
  phase_stack_.pop_back();
  phase_start_.pop_back();
}

void Tracer::add_span(const std::string& kernel, const KernelStats& stats,
                      double wall_s, double modeled_s) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceSpan span;
  span.kernel = kernel;
  span.phase = joined_phase_locked();
  const double now = epoch_.seconds();
  span.start_s = wall_s < now ? now - wall_s : 0.0;
  span.wall_s = wall_s;
  span.modeled_s = modeled_s;
  span.stats = stats;
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<PhaseSpan> Tracer::phase_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_spans_;
}

std::string Tracer::current_phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return joined_phase_locked();
}

std::size_t Tracer::phase_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_stack_.size();
}

std::map<std::string, Tracer::Aggregate> Tracer::per_kernel() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Aggregate> out;
  for (const TraceSpan& span : spans_) accumulate(out[span.kernel], span);
  return out;
}

double Tracer::total_modeled_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  double t = 0.0;
  for (const TraceSpan& span : spans_) t += span.modeled_s;
  return t;
}

std::string Tracer::summary_table() const {
  const auto kernels = per_kernel();
  std::vector<std::pair<std::string, Aggregate>> rows(kernels.begin(),
                                                      kernels.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.modeled_s > b.second.modeled_s;
  });
  Aggregate total;
  for (const auto& [name, agg] : rows) {
    total.modeled_s += agg.modeled_s;
    total.wall_s += agg.wall_s;
    total.spans += agg.spans;
  }

  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line), "%-26s %6s %8s %10s %10s %8s %12s %12s %7s\n",
                "kernel", "spans", "launches", "gflop", "gbyte", "flop/B",
                "modeled_s", "wall_s", "share");
  os << line;
  os << std::string(104, '-') << '\n';
  for (const auto& [name, agg] : rows) {
    const double bytes = agg.stats.total_bytes();
    std::snprintf(line, sizeof(line),
                  "%-26s %6lld %8lld %10.3f %10.3f %8.3f %12.6f %12.6f %6.1f%%\n",
                  name.c_str(), static_cast<long long>(agg.spans),
                  static_cast<long long>(agg.stats.launches),
                  agg.stats.flops / 1e9, bytes / 1e9,
                  bytes > 0.0 ? agg.stats.flops / bytes : 0.0, agg.modeled_s,
                  agg.wall_s,
                  total.modeled_s > 0.0
                      ? 100.0 * agg.modeled_s / total.modeled_s
                      : 0.0);
    os << line;
  }
  os << std::string(104, '-') << '\n';
  std::snprintf(line, sizeof(line), "%-26s %6lld %8s %10s %10s %8s %12.6f %12.6f\n",
                "total", static_cast<long long>(total.spans), "", "", "", "",
                total.modeled_s, total.wall_s);
  os << line;
  return os.str();
}

std::string Tracer::chrome_trace_json() const {
  // Copy under the lock, format outside it.
  std::vector<TraceSpan> spans;
  std::vector<PhaseSpan> phases;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
    phases = phase_spans_;
  }
  std::ostringstream os;
  // Lane names as chrome metadata events: phases on tid 0, kernels on tid 1.
  os << "{\"traceEvents\":["
     << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0"
     << ",\"args\":{\"name\":\"phases\"}}"
     << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1"
     << ",\"args\":{\"name\":\"kernels\"}}";
  for (const PhaseSpan& p : phases) {
    os << ",{\"name\":\"" << json::escape(p.phase)
       << "\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":0"
       << ",\"ts\":" << json::number(p.start_s * 1e6)
       << ",\"dur\":" << json::number(p.wall_s * 1e6) << '}';
  }
  for (const TraceSpan& s : spans) {
    const double dur_s = s.wall_s > 0.0 ? s.wall_s : s.modeled_s;
    os << ",{\"name\":\"" << json::escape(s.kernel)
       << "\",\"cat\":\"kernel\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << json::number(s.start_s * 1e6)
       << ",\"dur\":" << json::number(dur_s * 1e6) << ",\"args\":{"
       << "\"phase\":\"" << json::escape(s.phase) << '"'
       << ",\"flops\":" << json::number(s.stats.flops)
       << ",\"bytes\":" << json::number(s.stats.total_bytes())
       << ",\"launches\":" << s.stats.launches
       << ",\"modeled_s\":" << json::number(s.modeled_s)
       << ",\"wall_s\":" << json::number(s.wall_s) << "}}";
  }
  os << "]}";
  return os.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  CSTF_CHECK_MSG(out.good(), "cannot write trace file " << path);
  out << chrome_trace_json() << '\n';
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  phase_spans_.clear();
  phase_stack_.clear();
  phase_start_.clear();
  epoch_.reset();
}

namespace json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent JSON parser (RFC 8259 subset: no surrogate-pair
/// decoding — \uXXXX escapes are validated and kept verbatim).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw Error("JSON parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    if (++depth_ > 256) fail("nesting too deep");
    Value v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"':
        v.type = Value::Type::kString;
        v.str = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.type = Value::Type::kBool;
        v.boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.type = Value::Type::kBool;
        v.boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.type = Value::Type::kNull;
        break;
      default: v = parse_number();
    }
    --depth_;
    return v;
  }

  Value parse_object() {
    Value v;
    v.type = Value::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.type = Value::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + static_cast<std::size_t>(i)]))) {
              fail("bad \\u escape");
            }
          }
          out += "\\u";
          out.append(text_, pos_, 4);
          pos_ += 4;
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("bad number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad fraction");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    Value v;
    v.type = Value::Type::kNumber;
    v.num = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

bool valid(const std::string& text, std::string* error) {
  try {
    parse(text);
    return true;
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace json

}  // namespace cstf::simgpu
