// Shared helpers for the ivmf test suite.

#ifndef IVMF_TESTS_TEST_UTIL_H_
#define IVMF_TESTS_TEST_UTIL_H_

#include <cctype>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "interval/interval_matrix.h"
#include "linalg/matrix.h"

namespace ivmf::testing {

// A dense matrix of uniform values in [lo, hi).
inline Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, double lo = -1.0,
                           double hi = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Uniform(lo, hi);
  return m;
}

// A symmetric random matrix (A + Aᵀ) / 2.
inline Matrix RandomSymmetric(size_t n, Rng& rng) {
  Matrix a = RandomMatrix(n, n, rng);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < i; ++j) {
      const double v = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

// A random proper interval matrix: base values in [lo, hi), spans in
// [0, max_span).
inline IntervalMatrix RandomIntervalMatrix(size_t rows, size_t cols, Rng& rng,
                                           double lo = 0.1, double hi = 1.0,
                                           double max_span = 0.5) {
  IntervalMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const double base = rng.Uniform(lo, hi);
      m.Set(i, j, Interval(base, base + rng.Uniform(0.0, max_span)));
    }
  }
  return m;
}

// Max |A - B| entry.
inline double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  return (a - b).MaxAbs();
}

// A fixed-weight sum over the cells of a reconstruction endpoint: moves
// with every returned triplet, the trailing ones included. The value pins
// of the ISVD suites compare it.
inline double ReconstructionChecksum(const Matrix& r) {
  double sum = 0.0;
  for (size_t i = 0; i < r.rows(); ++i) {
    for (size_t j = 0; j < r.cols(); ++j) {
      sum += r(i, j) * (1.0 + static_cast<double>((i * 31 + j * 17) % 7));
    }
  }
  return sum;
}

// Checks columns of `m` are orthonormal within tol; returns max deviation
// |MᵀM - I|.
inline double OrthonormalityError(const Matrix& m) {
  const Matrix gram = m.Transpose() * m;
  return MaxAbsDiff(gram, Matrix::Identity(m.cols()));
}

// -- Minimal JSON validator ---------------------------------------------------
//
// Recursive-descent checker for RFC 8259 JSON, enough to assert that the
// observability exporters (metrics snapshots, Chrome traces) and the bench
// JsonWriter emit output a real parser accepts — without adding a JSON
// library dependency. Validates structure only; on failure writes a short
// reason into *error.

namespace json_internal {

struct Cursor {
  std::string_view text;
  size_t pos = 0;
  std::string* error;

  bool Fail(const std::string& why) {
    if (error != nullptr && error->empty()) {
      *error = why + " at offset " + std::to_string(pos);
    }
    return false;
  }
  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  bool Peek(char& c) {
    if (pos >= text.size()) return false;
    c = text[pos];
    return true;
  }
};

inline bool ParseValue(Cursor& cur, int depth);

inline bool ParseString(Cursor& cur) {
  if (cur.pos >= cur.text.size() || cur.text[cur.pos] != '"') {
    return cur.Fail("expected string");
  }
  ++cur.pos;
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos];
    if (c == '"') {
      ++cur.pos;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return cur.Fail("raw control character in string");
    }
    if (c == '\\') {
      ++cur.pos;
      if (cur.pos >= cur.text.size()) return cur.Fail("truncated escape");
      const char e = cur.text[cur.pos];
      if (e == 'u') {
        for (int i = 1; i <= 4; ++i) {
          if (cur.pos + i >= cur.text.size() ||
              std::isxdigit(static_cast<unsigned char>(
                  cur.text[cur.pos + i])) == 0) {
            return cur.Fail("bad \\u escape");
          }
        }
        cur.pos += 4;
      } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                 e != 'n' && e != 'r' && e != 't') {
        return cur.Fail("bad escape character");
      }
    }
    ++cur.pos;
  }
  return cur.Fail("unterminated string");
}

inline bool ParseNumber(Cursor& cur) {
  const size_t start = cur.pos;
  if (cur.pos < cur.text.size() && cur.text[cur.pos] == '-') ++cur.pos;
  if (cur.pos >= cur.text.size() ||
      std::isdigit(static_cast<unsigned char>(cur.text[cur.pos])) == 0) {
    return cur.Fail("expected digit");
  }
  if (cur.text[cur.pos] == '0') {
    ++cur.pos;  // no leading zeros
  } else {
    while (cur.pos < cur.text.size() &&
           std::isdigit(static_cast<unsigned char>(cur.text[cur.pos]))) {
      ++cur.pos;
    }
  }
  if (cur.pos < cur.text.size() && cur.text[cur.pos] == '.') {
    ++cur.pos;
    if (cur.pos >= cur.text.size() ||
        std::isdigit(static_cast<unsigned char>(cur.text[cur.pos])) == 0) {
      return cur.Fail("expected fraction digits");
    }
    while (cur.pos < cur.text.size() &&
           std::isdigit(static_cast<unsigned char>(cur.text[cur.pos]))) {
      ++cur.pos;
    }
  }
  if (cur.pos < cur.text.size() &&
      (cur.text[cur.pos] == 'e' || cur.text[cur.pos] == 'E')) {
    ++cur.pos;
    if (cur.pos < cur.text.size() &&
        (cur.text[cur.pos] == '+' || cur.text[cur.pos] == '-')) {
      ++cur.pos;
    }
    if (cur.pos >= cur.text.size() ||
        std::isdigit(static_cast<unsigned char>(cur.text[cur.pos])) == 0) {
      return cur.Fail("expected exponent digits");
    }
    while (cur.pos < cur.text.size() &&
           std::isdigit(static_cast<unsigned char>(cur.text[cur.pos]))) {
      ++cur.pos;
    }
  }
  return cur.pos > start;
}

inline bool ParseLiteral(Cursor& cur, std::string_view literal) {
  if (cur.text.substr(cur.pos, literal.size()) != literal) {
    return cur.Fail("bad literal");
  }
  cur.pos += literal.size();
  return true;
}

inline bool ParseObject(Cursor& cur, int depth) {
  ++cur.pos;  // consume '{'
  cur.SkipWs();
  char c;
  if (cur.Peek(c) && c == '}') {
    ++cur.pos;
    return true;
  }
  for (;;) {
    cur.SkipWs();
    if (!ParseString(cur)) return false;
    cur.SkipWs();
    if (!cur.Peek(c) || c != ':') return cur.Fail("expected ':'");
    ++cur.pos;
    if (!ParseValue(cur, depth)) return false;
    cur.SkipWs();
    if (!cur.Peek(c)) return cur.Fail("unterminated object");
    if (c == '}') {
      ++cur.pos;
      return true;
    }
    if (c != ',') return cur.Fail("expected ',' or '}'");
    ++cur.pos;
  }
}

inline bool ParseArray(Cursor& cur, int depth) {
  ++cur.pos;  // consume '['
  cur.SkipWs();
  char c;
  if (cur.Peek(c) && c == ']') {
    ++cur.pos;
    return true;
  }
  for (;;) {
    if (!ParseValue(cur, depth)) return false;
    cur.SkipWs();
    if (!cur.Peek(c)) return cur.Fail("unterminated array");
    if (c == ']') {
      ++cur.pos;
      return true;
    }
    if (c != ',') return cur.Fail("expected ',' or ']'");
    ++cur.pos;
  }
}

inline bool ParseValue(Cursor& cur, int depth) {
  if (depth > 128) return cur.Fail("nesting too deep");
  cur.SkipWs();
  char c;
  if (!cur.Peek(c)) return cur.Fail("expected value");
  switch (c) {
    case '{':
      return ParseObject(cur, depth + 1);
    case '[':
      return ParseArray(cur, depth + 1);
    case '"':
      return ParseString(cur);
    case 't':
      return ParseLiteral(cur, "true");
    case 'f':
      return ParseLiteral(cur, "false");
    case 'n':
      return ParseLiteral(cur, "null");
    default:
      return ParseNumber(cur);
  }
}

}  // namespace json_internal

// True when `text` is one complete, well-formed JSON value. On failure the
// first problem is described in *error (when non-null).
inline bool ValidateJson(std::string_view text, std::string* error = nullptr) {
  json_internal::Cursor cur{text, 0, error};
  if (!json_internal::ParseValue(cur, 0)) return false;
  cur.SkipWs();
  if (cur.pos != text.size()) return cur.Fail("trailing characters");
  return true;
}

}  // namespace ivmf::testing

#endif  // IVMF_TESTS_TEST_UTIL_H_
