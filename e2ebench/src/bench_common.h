// Small utilities shared by the load generator and the traced replay:
// monotonic time, percentile summaries, a JSON writer for result lines, a
// JSON reader for the server's `metrics` dump, and command-line parsing.
#ifndef E2EBENCH_BENCH_COMMON_H_
#define E2EBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

// CLOCK_MONOTONIC in nanoseconds; the same clock Python's time.monotonic()
// reads on Linux, so run.py can subtract timestamps printed here.
int64_t NowNs();

// Quantile q in [0,1] by linear interpolation between closest ranks (the
// same rule as numpy's default). Sorts `values` in place. 0 when empty.
double Quantile(std::vector<double>& values, double q);

// A tail quantile that is still measured: q, lowered when fewer than 20
// samples would lie beyond it, to the highest quantile that has 20 (and
// never below the median).
double TailQuantile(std::vector<double>& values, double q);

// Latency samples with the time each was taken.
class Samples {
 public:
  void Add(int64_t at_ns, double value) {
    at_ns_.push_back(at_ns);
    values_.push_back(value);
  }
  void Merge(const Samples& other);
  size_t size() const { return values_.size(); }
  // TailQuantile over all samples.
  double Tail(double q) const;
  // Quantile q that a short host stall cannot move: when there are enough
  // samples for three or more time windows with 20 beyond q each, the
  // median over (up to ten) windows of each window's quantile; otherwise
  // Tail(q).
  double Robust(double q) const;

 private:
  std::vector<int64_t> at_ns_;
  std::vector<double> values_;
};

// Builds one JSON object incrementally. Keys are emitted in call order.
class JsonWriter {
 public:
  JsonWriter& Num(const std::string& key, double value);
  JsonWriter& Int(const std::string& key, int64_t value);
  JsonWriter& Bool(const std::string& key, bool value);
  JsonWriter& Str(const std::string& key, const std::string& value);
  // `json` must already be valid JSON text.
  JsonWriter& Raw(const std::string& key, const std::string& json);
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonQuote(std::string_view text);

// A parsed JSON value (objects keep their keys sorted).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  // Member lookup; a shared null value when absent or not an object.
  const JsonValue& operator[](const std::string& key) const;
  double NumberOr(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
};

// Parses `text`; returns false (and leaves `out` unspecified) on malformed
// input or trailing garbage.
bool ParseJson(std::string_view text, JsonValue* out);

// `--key value` pairs and bare `--flag`s after the mode word.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Get(const std::string& key, const std::string& fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

bool ReadFile(const std::string& path, std::string* out);
bool WriteFile(const std::string& path, const std::string& data);

// 64-bit mix (splitmix64 finalizer) for deriving independent sub-seeds.
uint64_t Mix64(uint64_t x);

}  // namespace e2e

#endif  // E2EBENCH_BENCH_COMMON_H_
