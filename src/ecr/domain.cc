#include "ecr/domain.h"

#include <cmath>
#include <limits>

#include "common/strings.h"

namespace ecrint::ecr {

namespace {

// Numeric value-set of a domain as a closed interval; unbounded ends use
// infinities so interval logic below stays uniform.
struct Interval {
  double lo;
  double hi;
};

Interval NumericInterval(const Domain& d) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return Interval{d.lower_bound().value_or(-kInf),
                  d.upper_bound().value_or(kInf)};
}

DomainRelation CompareIntervals(Interval a, Interval b) {
  if (a.lo == b.lo && a.hi == b.hi) return DomainRelation::kEqual;
  if (a.lo <= b.lo && a.hi >= b.hi) return DomainRelation::kContains;
  if (b.lo <= a.lo && b.hi >= a.hi) return DomainRelation::kContainedIn;
  if (a.hi < b.lo || b.hi < a.lo) return DomainRelation::kDisjoint;
  return DomainRelation::kOverlap;
}

}  // namespace

const char* DomainTypeName(DomainType type) {
  switch (type) {
    case DomainType::kChar: return "char";
    case DomainType::kInt: return "int";
    case DomainType::kReal: return "real";
    case DomainType::kBool: return "bool";
    case DomainType::kDate: return "date";
  }
  return "?";
}

const char* DomainRelationName(DomainRelation relation) {
  switch (relation) {
    case DomainRelation::kEqual: return "equal";
    case DomainRelation::kContains: return "contains";
    case DomainRelation::kContainedIn: return "contained-in";
    case DomainRelation::kOverlap: return "overlap";
    case DomainRelation::kDisjoint: return "disjoint";
  }
  return "?";
}

Domain Domain::CharN(int max_length) {
  Domain d(DomainType::kChar);
  d.max_length_ = max_length;
  return d;
}

Domain Domain::IntRange(long long lo, long long hi) {
  Domain d(DomainType::kInt);
  d.lower_bound_ = static_cast<double>(lo);
  d.upper_bound_ = static_cast<double>(hi);
  return d;
}

Domain Domain::RealRange(double lo, double hi) {
  Domain d(DomainType::kReal);
  d.lower_bound_ = lo;
  d.upper_bound_ = hi;
  return d;
}

DomainRelation Domain::Compare(const Domain& other) const {
  if (type_ != other.type_ || unit_ != other.unit_) {
    return DomainRelation::kDisjoint;
  }
  switch (type_) {
    case DomainType::kBool:
    case DomainType::kDate:
      return DomainRelation::kEqual;
    case DomainType::kChar: {
      constexpr int kInfLen = std::numeric_limits<int>::max();
      int a = max_length_.value_or(kInfLen);
      int b = other.max_length_.value_or(kInfLen);
      // Shorter strings are a subset of longer strings of the same type.
      if (a == b) return DomainRelation::kEqual;
      return a > b ? DomainRelation::kContains : DomainRelation::kContainedIn;
    }
    case DomainType::kInt:
    case DomainType::kReal:
      return CompareIntervals(NumericInterval(*this),
                              NumericInterval(other));
  }
  return DomainRelation::kDisjoint;
}

bool Domain::Comparable(const Domain& other) const {
  return Compare(other) != DomainRelation::kDisjoint;
}

std::string Domain::ToString() const {
  std::string out = DomainTypeName(type_);
  if (type_ == DomainType::kChar && max_length_.has_value()) {
    out += '(';
    out += std::to_string(*max_length_);
    out += ')';
  }
  if (lower_bound_.has_value() || upper_bound_.has_value()) {
    auto render = [this](double v) {
      if (type_ == DomainType::kInt) {
        return std::to_string(static_cast<long long>(v));
      }
      return FormatFixed(v, 2);
    };
    out += '[';
    out += render(lower_bound_.value_or(0));
    out += "..";
    out += render(upper_bound_.value_or(0));
    out += ']';
  }
  if (!unit_.empty()) out += " unit " + unit_;
  return out;
}

Result<Domain> ParseDomain(const std::string& text) {
  std::string_view s = StripWhitespace(text);
  std::string unit;
  if (size_t pos = s.find(" unit "); pos != std::string_view::npos) {
    unit = std::string(StripWhitespace(s.substr(pos + 6)));
    s = StripWhitespace(s.substr(0, pos));
  }

  auto finish = [&unit](Domain d) -> Result<Domain> {
    if (!unit.empty()) d.set_unit(unit);
    return d;
  };

  // char(N)
  if (StartsWith(s, "char")) {
    std::string_view rest = StripWhitespace(s.substr(4));
    if (rest.empty()) return finish(Domain::Char());
    if (rest.front() == '(' && rest.back() == ')') {
      std::string inner(StripWhitespace(rest.substr(1, rest.size() - 2)));
      char* end = nullptr;
      long n = std::strtol(inner.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || n <= 0) {
        return ParseError("bad char length in domain '" + text + "'");
      }
      return finish(Domain::CharN(static_cast<int>(n)));
    }
    return ParseError("malformed char domain '" + text + "'");
  }

  auto parse_range = [&](std::string_view rest, bool integral,
                         Domain unbounded) -> Result<Domain> {
    rest = StripWhitespace(rest);
    if (rest.empty()) return finish(unbounded);
    if (rest.front() != '[' || rest.back() != ']') {
      return ParseError("malformed range in domain '" + text + "'");
    }
    std::string inner(rest.substr(1, rest.size() - 2));
    size_t dots = inner.find("..");
    if (dots == std::string::npos) {
      return ParseError("range needs '..' in domain '" + text + "'");
    }
    std::string lo_text(StripWhitespace(inner.substr(0, dots)));
    std::string hi_text(StripWhitespace(inner.substr(dots + 2)));
    char* end = nullptr;
    double lo = std::strtod(lo_text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return ParseError("bad lower bound in domain '" + text + "'");
    }
    double hi = std::strtod(hi_text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return ParseError("bad upper bound in domain '" + text + "'");
    }
    if (lo > hi) {
      return ParseError("inverted range in domain '" + text + "'");
    }
    if (integral) {
      return finish(Domain::IntRange(static_cast<long long>(lo),
                                     static_cast<long long>(hi)));
    }
    return finish(Domain::RealRange(lo, hi));
  };

  if (StartsWith(s, "int")) return parse_range(s.substr(3), true,
                                               Domain::Int());
  if (StartsWith(s, "real")) return parse_range(s.substr(4), false,
                                                Domain::Real());
  if (s == "bool") return finish(Domain::Bool());
  if (s == "date") return finish(Domain::Date());
  return ParseError("unknown domain '" + text + "'");
}

}  // namespace ecrint::ecr
