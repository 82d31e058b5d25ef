#include "bench_common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2e {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantile(std::vector<double>& values, double q) {
  double n = static_cast<double>(values.size());
  double measurable = n > 0 ? 1.0 - 20.0 / n : 0.5;
  return Quantile(values, std::max(0.5, std::min(q, measurable)));
}

void Samples::Merge(const Samples& other) {
  at_ns_.insert(at_ns_.end(), other.at_ns_.begin(), other.at_ns_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Tail(double q) const {
  std::vector<double> values = values_;
  return TailQuantile(values, q);
}

double Samples::Robust(double q) const {
  int windows = static_cast<int>(std::min(
      10.0, std::floor(static_cast<double>(values_.size()) * (1 - q) / 20)));
  if (windows < 3) return Tail(q);
  auto [first, last] = std::minmax_element(at_ns_.begin(), at_ns_.end());
  double span = static_cast<double>(*last - *first) + 1;
  std::vector<std::vector<double>> split(windows);
  for (size_t i = 0; i < values_.size(); ++i) {
    int w = static_cast<int>(static_cast<double>(at_ns_[i] - *first) / span *
                             windows);
    split[std::min(w, windows - 1)].push_back(values_[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& window : split) {
    if (!window.empty()) per_window.push_back(TailQuantile(window, q));
  }
  return Quantile(per_window, 0.5);
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out + "\"";
}

void JsonWriter::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}

JsonWriter& JsonWriter::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonQuote(value);
  return *this;
}

JsonWriter& JsonWriter::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

const JsonValue& JsonValue::operator[](const std::string& key) const {
  static const JsonValue kNull;
  if (kind != Kind::kObject) return kNull;
  auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    if (!Parse(out, 0)) return false;
    Skip();
    return pos_ == text_.size();
  }

 private:
  void Skip() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      char e = text_[pos_++];
      switch (e) {
        case 'n':
          *out += '\n';
          break;
        case 't':
          *out += '\t';
          break;
        case 'r':
          *out += '\r';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16));
          pos_ += 4;
          // Metric names are ASCII; anything wider is kept as '?'.
          *out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          *out += e;
      }
    }
    return false;
  }

  bool Parse(JsonValue* out, int depth) {
    if (depth > 64) return false;
    Skip();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        Skip();
        std::string key;
        if (!ParseString(&key)) return false;
        Skip();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        if (!Parse(&out->object[key], depth + 1)) return false;
        Skip();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      Skip();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        out->array.emplace_back();
        if (!Parse(&out->array.back(), depth + 1)) return false;
        Skip();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    char* end = nullptr;
    std::string copy(text_.substr(pos_, 64));
    double value = std::strtod(copy.c_str(), &end);
    if (end == copy.c_str()) return false;
    pos_ += static_cast<size_t>(end - copy.c_str());
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue();
  return JsonParser(text).ParseDocument(out);
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "";
    }
  }
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Args::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoll(it->second.c_str());
}

double Args::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << data;
  return static_cast<bool>(out);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace e2e
