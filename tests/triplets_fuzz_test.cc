// Malformed-input, differential and round-trip fuzz tests for the triplet
// reader (io/triplets.h). The reader faces on-disk data, so every corrupt
// stream — out-of-range indices, duplicate cells, truncated files, hostile
// size declarations — must come back as std::nullopt with the first bad
// line named, never as a crash or an unbounded allocation. The previous
// line-by-line istringstream reader is kept below as an oracle: the
// chunk-parallel reader must accept exactly what it accepted, bit for bit,
// apart from two deliberate fixes (negative sizes and indices no longer
// wrap; blank lines may precede the header). Deterministic RNG keeps every
// "fuzz" case reproducible; the CI sanitizer jobs give the sweeps their
// teeth.

#include "io/triplets.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "base/rng.h"
#include "io/file_util.h"
#include "sparse/sparse_interval_matrix.h"

namespace ivmf {
namespace {

constexpr char kHeader[] = "%%ivmf interval coordinate\n";

// The reader as it was before the chunk-parallel rewrite, kept verbatim as
// the reference for what the format accepts.
std::optional<SparseIntervalMatrix> OracleFromTriplets(
    const std::string& text,
    DuplicatePolicy duplicates = DuplicatePolicy::kReject) {
  std::istringstream in(text);
  std::string line;

  // Header line.
  if (!std::getline(in, line)) return std::nullopt;
  if (!LooksLikeTriplets(line)) return std::nullopt;

  // Size line (after any comment lines).
  size_t rows = 0, cols = 0, nnz = 0;
  bool have_sizes = false;
  while (std::getline(in, line)) {
    const size_t content = line.find_first_not_of(" \t\r");
    if (content == std::string::npos || line[content] == '%') continue;
    std::istringstream sizes(line);
    if (!(sizes >> rows >> cols >> nnz)) return std::nullopt;
    std::string rest;
    if (sizes >> rest) return std::nullopt;  // trailing tokens
    have_sizes = true;
    break;
  }
  if (!have_sizes) return std::nullopt;

  // Sanity-bound the declared sizes BEFORE allocating anything: a corrupt
  // (or hostile) size line must produce a parse error, not an allocation
  // crash. nnz may not exceed rows * cols (evaluated overflow-free), and
  // dimensions beyond 2^27 are rejected — the CSR row pointer alone would
  // exceed a GiB; matrices that large are built through the in-memory API.
  constexpr size_t kMaxDimension = size_t{1} << 27;
  if (rows > kMaxDimension || cols > kMaxDimension) return std::nullopt;
  if (nnz > 0 && (rows == 0 || cols == 0 || (nnz - 1) / rows >= cols)) {
    return std::nullopt;
  }

  std::vector<IntervalTriplet> triplets;
  triplets.reserve(std::min(nnz, size_t{1} << 20));
  while (std::getline(in, line)) {
    const size_t content = line.find_first_not_of(" \t\r");
    if (content == std::string::npos || line[content] == '%') continue;
    std::istringstream entry(line);
    size_t i = 0, j = 0;
    double lo = 0.0, hi = 0.0;
    if (!(entry >> i >> j >> lo >> hi)) return std::nullopt;
    std::string rest;
    if (entry >> rest) return std::nullopt;  // trailing tokens
    if (i < 1 || i > rows || j < 1 || j > cols) return std::nullopt;
    if (!std::isfinite(lo) || !std::isfinite(hi)) return std::nullopt;
    if (lo > hi) return std::nullopt;
    if (triplets.size() == nnz) return std::nullopt;  // more entries than declared
    triplets.push_back({i - 1, j - 1, Interval(lo, hi)});
  }
  if (triplets.size() != nnz) return std::nullopt;
  SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
  // FromTriplets hulls duplicate coordinates. Under kReject a serialized
  // stream is sorted and unique, so a shrunken entry count means the file
  // double-declared a cell — reject it instead of guessing which value was
  // meant. Under kMergeHull the hull IS the requested semantics and the
  // declared nnz only counts entry lines.
  if (duplicates == DuplicatePolicy::kReject && m.nnz() != nnz) {
    return std::nullopt;
  }
  return m;
}

// A random signed sparse interval matrix for round-trip material.
SparseIntervalMatrix RandomSparse(size_t rows, size_t cols, double fill,
                                  Rng& rng) {
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (!rng.Bernoulli(fill)) continue;
      const double base = rng.Uniform(-2.0, 2.0);
      const double span = rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(0.0, 1.0);
      triplets.push_back({i, j, Interval(base, base + span)});
    }
  }
  return SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Shape, pattern and the bits of every endpoint agree.
void ExpectIdentical(const SparseIntervalMatrix& got,
                     const SparseIntervalMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_TRUE(SameBits(got.lower_values(), want.lower_values()));
  EXPECT_TRUE(SameBits(got.upper_values(), want.upper_values()));
}

// Checks the reader against the oracle on `text`: the same accept/reject
// decision and a bit-identical matrix. The two fixes are the only allowed
// differences: blank lines before the header are skipped (the oracle is
// shown the text from the header line on), and a size or index with a
// leading '-' is rejected where the oracle may have wrapped it into range.
void ExpectAgreesWithOracle(const std::string& text,
                            DuplicatePolicy duplicates = DuplicatePolicy::kReject) {
  std::string error;
  const auto got = SparseIntervalMatrixFromTriplets(text, duplicates, &error);
  const size_t header = text.find_first_not_of(" \t\r\n");
  const size_t line_start =
      header == std::string::npos || text.rfind('\n', header) == std::string::npos
          ? 0
          : text.rfind('\n', header) + 1;
  const auto want = OracleFromTriplets(text.substr(line_start), duplicates);
  if (!got && want && error.find("negative") != std::string::npos) return;
  ASSERT_EQ(got.has_value(), want.has_value())
      << "reader error: " << error << "\ninput:\n" << text;
  if (got) {
    ExpectIdentical(*got, *want);
  } else {
    EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
  }
}

// A malformed stream and the line its error must name.
struct Malformed {
  const char* text;
  size_t line;
};

TEST(TripletsFuzzTest, MalformedInputsErrorWithoutCrashing) {
  const Malformed cases[] = {
      // Empty / header-only / whitespace.
      {"", 1},
      {"%%ivmf interval coordinate", 1},
      {"%%ivmf interval coordinate\n", 1},
      {"%%ivmf interval coordinate\n   \n\t\n", 3},
      // Size line too short, non-numeric, or with trailing tokens.
      {"%%ivmf interval coordinate\n2 2\n", 2},
      {"%%ivmf interval coordinate\ntwo 2 1\n1 1 0 1\n", 2},
      {"%%ivmf interval coordinate\n2 2 1 9\n1 1 0 1\n", 2},
      // Entry count mismatches (truncated file / extra entries).
      {"%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n1 1 0 1\n2 2 0 1\n", 4},
      // Truncated mid-entry.
      {"%%ivmf interval coordinate\n2 2 1\n1 1 0\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n1\n", 3},
      // Out-of-range / zero (1-based format) indices.
      {"%%ivmf interval coordinate\n2 2 1\n3 1 0 1\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n1 3 0 1\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n0 1 0 1\n", 3},
      // Duplicate cell: inconsistent with the declared count.
      {"%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n1 1 2 3\n", 4},
      {"%%ivmf interval coordinate\n2 2 3\n2 1 0 1\n1 1 0 1\n% c\n2 1 2 3\n",
       6},
      // Misordered interval.
      {"%%ivmf interval coordinate\n2 2 1\n1 1 2 1\n", 3},
      // Non-finite endpoints.
      {"%%ivmf interval coordinate\n2 2 1\n1 1 nan 1\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n1 1 0 inf\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n1 1 0 1e400\n", 3},
      // Hostile size declarations: must error, not allocate.
      {"%%ivmf interval coordinate\n2 2 999999999999999999\n", 2},
      {"%%ivmf interval coordinate\n-1 2 1\n1 1 0 1\n", 2},
      {"%%ivmf interval coordinate\n2 -1 1\n1 1 0 1\n", 2},
      {"%%ivmf interval coordinate\n2 2 -1\n1 1 0 1\n", 2},
      {"%%ivmf interval coordinate\n999999999999 2 0\n", 2},
      {"%%ivmf interval coordinate\n2 999999999999 0\n", 2},
      {"%%ivmf interval coordinate\n99999999999999999999 2 0\n", 2},
      // nnz exceeding the cell count.
      {"%%ivmf interval coordinate\n2 2 5\n1 1 0 1\n1 2 0 1\n2 1 0 1\n"
       "2 2 0 1\n1 1 0 2\n",
       2},
      // Entries on an empty shape.
      {"%%ivmf interval coordinate\n0 0 1\n1 1 0 1\n", 2},
      // Comments and blank lines count toward the reported line.
      {"%%ivmf interval coordinate\n% c\n\n2 2 2\n% c\n1 1 0 1\r\n\n"
       "2 2 1 x\n",
       8},
      // Negative sizes and indices that `istream >> size_t` wrapped into
      // range (the oracle accepts these).
      {"%%ivmf interval coordinate\n2 2 1\n-18446744073709551615 1 0 1\n", 3},
      {"%%ivmf interval coordinate\n2 2 1\n1 -18446744073709551615 0 1\n", 3},
      {"%%ivmf interval coordinate\n2 2 -18446744073709551615\n1 1 0 1\n", 2},
      {"%%ivmf interval coordinate\n-18446744073709551614 2 1\n1 1 0 1\n", 2},
      {"%%ivmf interval coordinate\n2 2 -0\n", 2},
  };
  for (const Malformed& c : cases) {
    std::string error;
    EXPECT_FALSE(
        SparseIntervalMatrixFromTriplets(c.text, DuplicatePolicy::kReject,
                                         &error)
            .has_value())
        << "accepted malformed input: " << c.text;
    EXPECT_EQ(error.rfind("line " + std::to_string(c.line) + ": ", 0), 0u)
        << "error \"" << error << "\" for: " << c.text;
    ExpectAgreesWithOracle(c.text);
  }
  // The wrapped negatives are the cases where the oracle disagrees.
  EXPECT_TRUE(OracleFromTriplets(
      "%%ivmf interval coordinate\n2 2 1\n-18446744073709551615 1 0 1\n"));
  EXPECT_TRUE(OracleFromTriplets(
      "%%ivmf interval coordinate\n-18446744073709551614 2 1\n1 1 0 1\n"));
}

TEST(TripletsFuzzTest, ErrorsNameTheRule) {
  const std::pair<const char*, const char*> cases[] = {
      {"%%ivmf interval coordinate\n2 5000 1\n1 5001 0 1\n",
       "line 3: column 5001 outside 1..5000"},
      {"%%ivmf interval coordinate\n2 2 1\n3 1 0 1\n", "line 3: row 3 outside 1..2"},
      {"%%ivmf interval coordinate\n2 2 1\n1 1 2 1\n", "line 3: lo 2 > hi 1"},
      {"%%ivmf interval coordinate\n2 2 1\n1 1 0 1 junk\n",
       "line 3: trailing text after i j lo hi"},
      {"%%ivmf interval coordinate\n2 2 1\n-1 1 0 1\n",
       "line 3: negative row index"},
      {"%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n",
       "line 3: input ends after 1 entry lines of the declared nnz 2"},
      {"%%ivmf interval coordinate\n2 2 1\n1 1 0 1\n2 2 0 1\n",
       "line 4: more entry lines than the declared nnz 1"},
      {"%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n1 1 2 3\n",
       "line 4: duplicate cell (1, 1)"},
      {"1 1 1\n1 1 0 1\n",
       "line 1: missing the \"%%ivmf interval coordinate\" header"},
  };
  for (const auto& [text, want] : cases) {
    std::string error;
    EXPECT_FALSE(SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kReject,
                                                  &error));
    EXPECT_EQ(error, want);
  }
  // Success leaves *error alone.
  std::string untouched = "unchanged";
  EXPECT_TRUE(SparseIntervalMatrixFromTriplets(
      "%%ivmf interval coordinate\n1 1 1\n1 1 0 1\n", DuplicatePolicy::kReject,
      &untouched));
  EXPECT_EQ(untouched, "unchanged");
}

TEST(TripletsFuzzTest, ValidEdgeShapesParse) {
  // Empty matrices and empty patterns stay valid.
  EXPECT_TRUE(SparseIntervalMatrixFromTriplets(
                  "%%ivmf interval coordinate\n0 0 0\n")
                  .has_value());
  EXPECT_TRUE(SparseIntervalMatrixFromTriplets(
                  "%%ivmf interval coordinate\n5 3 0\n")
                  .has_value());
  const auto full = SparseIntervalMatrixFromTriplets(
      "%%ivmf interval coordinate\n2 2 4\n1 1 0 1\n1 2 -1 1\n2 1 2 2\n"
      "2 2 -3 -2\n");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->nnz(), 4u);
  EXPECT_FALSE(full->IsNonNegative());
  // Blank lines before the header: LooksLikeTriplets (the format sniff of
  // ivmf_decompose) skips them, and so does the reader.
  const std::string leading_blank =
      "\n \t\r\n%%ivmf interval coordinate\n2 2 1\n2 1 0.5 1\n";
  EXPECT_TRUE(LooksLikeTriplets(leading_blank));
  const auto after_blank = SparseIntervalMatrixFromTriplets(leading_blank);
  ASSERT_TRUE(after_blank.has_value());
  EXPECT_EQ(after_blank->At(1, 0), Interval(0.5, 1.0));
  std::string error;
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      "\n\n%%ivmf interval coordinate\n2 2 1\n2 1 x 1\n",
      DuplicatePolicy::kReject, &error));
  EXPECT_EQ(error, "line 5: cannot read lo");
}

TEST(TripletsFuzzTest, FieldGrammarMatchesTheOracle) {
  // Quirks of `istream >>` that the reader keeps: fields need no
  // separating space when a number ends at a '.', '-' or letter; '+' signs;
  // vertical tab and form feed between fields; underflow reads as 0.
  const char* const entries[] = {
      "1 2.5 1",         "+1 +1 +0 +1",     "1 1 -1-0",      "1 1 .5 1.",
      "1 1 00.5 007",    "1 1 1e-3 1E+2",   "1\v1\f0 1",     "\v1 1 0 1",
      " \t 1 1 0 1 \r",  "1 1 1e-400 1",    "1 1 -1e-400 0", "1 1 1e-310 1",
      "1 1 4.9e-324 1",  "1 1 1e 2",        "1 1 1e+ 2",     "1 1 0x1 2",
      "1 1 inf 2",       "1 1 -nan 2",      "1 1 .e1 2",     "1 1 0.e1 2",
      "1 1 +-1 2",       "1 1 -+1 2",       "++1 1 0 1",     "1 1 0 1 %",
      "1 1 0 1 2",       "1 1 0 1e",        "1\t1 0 1e2",    "\v",
      "1 1 1.2.3 4",     "1.5 1 0 1",       "1 1 0 1,",      "1 1 - 1",
  };
  for (const char* entry : entries) {
    ExpectAgreesWithOracle(std::string(kHeader) + "2 2 1\n" + entry + "\n");
  }
  // Size-line variants.
  const char* const sizes[] = {"+2 2 1", "2\t2\v1", " 2 2 1 ", "2 2 1 %",
                               "2 2 01", "2 2 1.0", "2 2.0 1"};
  for (const char* size : sizes) {
    ExpectAgreesWithOracle(std::string(kHeader) + size + "\n1 1 0 1\n");
  }
  // An embedded NUL is text like any other.
  ExpectAgreesWithOracle(std::string(kHeader) + "2 2 1\n1 1 0 1" +
                         std::string(1, '\0') + "\n");
  const auto underflow = SparseIntervalMatrixFromTriplets(
      std::string(kHeader) + "1 1 1\n1 1 -1e-400 1e-400\n");
  ASSERT_TRUE(underflow.has_value());
  EXPECT_EQ(underflow->lower_values()[0], 0.0);
  EXPECT_TRUE(std::signbit(underflow->lower_values()[0]));
  EXPECT_EQ(underflow->upper_values()[0], 0.0);
}

TEST(TripletsFuzzTest, DuplicateCellSemanticsMatchFromTripletsUnderMergeMode) {
  // The unified duplicate-cell contract: the same observation stream must
  // yield the same matrix whether it enters through the in-memory
  // constructor (hull merge) or the reader in kMergeHull mode. The default
  // strict reader keeps rejecting the stream.
  const std::vector<IntervalTriplet> observations{
      {0, 0, Interval(1.0, 2.0)},
      {1, 2, Interval(0.5, 0.5)},
      {0, 0, Interval(0.25, 1.5)},   // duplicate of (0, 0)
      {1, 2, Interval(-1.0, 0.0)},   // duplicate of (1, 2)
  };
  std::string text = "%%ivmf interval coordinate\n2 3 4\n";
  for (const IntervalTriplet& t : observations) {
    text += std::to_string(t.row + 1) + " " + std::to_string(t.col + 1) + " " +
            std::to_string(t.value.lo) + " " + std::to_string(t.value.hi) +
            "\n";
  }

  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(text).has_value());
  std::string error;
  EXPECT_FALSE(
      SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kReject, &error)
          .has_value());
  EXPECT_EQ(error, "line 5: duplicate cell (1, 1)");

  const auto merged =
      SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kMergeHull);
  ASSERT_TRUE(merged.has_value());
  const SparseIntervalMatrix direct =
      SparseIntervalMatrix::FromTriplets(2, 3, observations);
  ASSERT_EQ(merged->nnz(), direct.nnz());
  ExpectIdentical(*merged, direct);
  EXPECT_EQ(merged->At(0, 0), Interval(0.25, 2.0));
  EXPECT_EQ(merged->At(1, 2), Interval(-1.0, 0.5));
  ExpectAgreesWithOracle(text, DuplicatePolicy::kMergeHull);
}

TEST(TripletsFuzzTest, MergeModeStillRejectsStructurallyMalformedInput) {
  // kMergeHull only relaxes the duplicate-cell rule; every other rejection
  // (wrong line count, bad indices, misordered intervals) stays intact.
  const char* const malformed[] = {
      "%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n",           // missing line
      "%%ivmf interval coordinate\n2 2 1\n3 1 0 1\n",           // row range
      "%%ivmf interval coordinate\n2 2 1\n1 1 2 1\n",           // lo > hi
      "%%ivmf interval coordinate\n2 2 1\n1 1 0 1\n1 2 0 1\n",  // extra line
  };
  for (const char* text : malformed) {
    EXPECT_FALSE(
        SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kMergeHull)
            .has_value())
        << text;
  }
}

TEST(TripletsFuzzTest, RoundTripPreservesEveryMatrix) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t rows = 1 + static_cast<size_t>(rng.Uniform() * 40);
    const size_t cols = 1 + static_cast<size_t>(rng.Uniform() * 25);
    const double fill = rng.Uniform(0.0, 0.6);
    const SparseIntervalMatrix m = RandomSparse(rows, cols, fill, rng);
    // Precision 17 round-trips doubles exactly.
    const std::string text = SparseIntervalMatrixToTriplets(m, 17);
    const auto parsed = SparseIntervalMatrixFromTriplets(text);
    ASSERT_TRUE(parsed.has_value()) << "trial " << trial;
    ASSERT_EQ(parsed->nnz(), m.nnz());
    ExpectIdentical(*parsed, m);
    ExpectAgreesWithOracle(text);
    ExpectAgreesWithOracle(SparseIntervalMatrixToTriplets(m));
  }
}

TEST(TripletsFuzzTest, TruncationAtEveryLineErrorsOrParses) {
  Rng rng(2025);
  const SparseIntervalMatrix m = RandomSparse(12, 9, 0.4, rng);
  const std::string text = SparseIntervalMatrixToTriplets(m);
  // Cut after every newline: only the full text (or a prefix that happens
  // to describe a complete smaller stream — impossible here, the size line
  // pins nnz) may parse.
  for (size_t pos = 0; pos < text.size(); ++pos) {
    if (text[pos] != '\n') continue;
    const auto parsed =
        SparseIntervalMatrixFromTriplets(text.substr(0, pos + 1));
    if (pos + 1 == text.size()) {
      EXPECT_TRUE(parsed.has_value());
    } else if (parsed.has_value()) {
      // A shorter valid parse can only be the nnz == 0 prefix of an empty
      // pattern; with nnz > 0 every proper prefix must fail.
      EXPECT_EQ(m.nnz(), 0u);
    }
  }
  // Raw byte truncations (mid-line) must never crash, and must agree.
  for (size_t len = 0; len < text.size(); len += 7) {
    ExpectAgreesWithOracle(text.substr(0, len));
  }
}

TEST(TripletsFuzzTest, SingleByteMutationsNeverCrashTheReader) {
  Rng rng(2026);
  const SparseIntervalMatrix m = RandomSparse(8, 6, 0.5, rng);
  const std::string text = SparseIntervalMatrixToTriplets(m);
  const char alphabet[] = "0123456789 .-+eE\n%x\r\t";
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = text;
    const size_t pos = static_cast<size_t>(rng.Uniform() * mutated.size());
    const char c =
        alphabet[static_cast<size_t>(rng.Uniform() * (sizeof(alphabet) - 1))];
    switch (static_cast<int>(rng.Uniform() * 3)) {
      case 0:
        mutated[pos] = c;
        break;
      case 1:
        mutated.insert(pos, 1, c);
        break;
      default:
        mutated.erase(pos, 1);
        break;
    }
    const auto parsed = SparseIntervalMatrixFromTriplets(mutated);
    if (parsed.has_value()) {
      // Whatever survives mutation must at least be a coherent matrix.
      EXPECT_TRUE(parsed->IsProper());
      EXPECT_LE(parsed->nnz(), parsed->rows() * parsed->cols());
    }
    ExpectAgreesWithOracle(mutated);
    ExpectAgreesWithOracle(mutated, DuplicatePolicy::kMergeHull);
  }
}

// -- Inputs above the single-chunk size (1 MiB) ------------------------------

// A 400 x 400 stream of ~80k entries (over 3 MiB at precision 17, so
// several chunks), rendered line by line so tests can rearrange it.
struct BigStream {
  SparseIntervalMatrix matrix;
  std::vector<std::string> entries;  // "i j lo hi", file order

  static BigStream Make() {
    Rng rng(4242);
    BigStream s{RandomSparse(400, 400, 0.5, rng), {}};
    const std::string text = SparseIntervalMatrixToTriplets(s.matrix, 17);
    size_t pos = text.find('\n', text.find('\n') + 1) + 1;  // past the sizes
    while (pos < text.size()) {
      const size_t nl = text.find('\n', pos);
      s.entries.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
    return s;
  }

  std::string Render(size_t nnz, const std::vector<std::string>& lines) const {
    std::string text = kHeader;
    text += "400 400 " + std::to_string(nnz) + "\n";
    for (const std::string& line : lines) text += line + "\n";
    return text;
  }

  std::vector<IntervalTriplet> Triplets(
      const std::vector<std::string>& lines) const {
    std::vector<IntervalTriplet> triplets;
    for (const std::string& line : lines) {
      std::istringstream in(line);
      size_t i = 0, j = 0;
      double lo = 0.0, hi = 0.0;
      in >> i >> j >> lo >> hi;
      triplets.push_back({i - 1, j - 1, Interval(lo, hi)});
    }
    return triplets;
  }
};

const BigStream& Big() {
  static const BigStream* stream = new BigStream(BigStream::Make());
  return *stream;
}

TEST(TripletsChunkTest, CommentsBlanksAndCrlfAcrossChunkBoundaries) {
  const BigStream& big = Big();
  ASSERT_GT(big.Render(big.entries.size(), big.entries).size(), 3u << 20);
  // Every entry line sits next to a comment, a blank line and a CRLF line,
  // so wherever a chunk boundary falls it splits such a group.
  std::string text = kHeader;
  text += "% generated\n400 400 " + std::to_string(big.entries.size()) + "\n";
  for (size_t k = 0; k < big.entries.size(); ++k) {
    switch (k % 4) {
      case 0:
        text += big.entries[k] + "\r\n% comment " + std::to_string(k) + "\n";
        break;
      case 1:
        text += "\n" + big.entries[k] + "\n \t\r\n";
        break;
      case 2:
        text += "  %\r\n" + big.entries[k] + " \r\n";
        break;
      default:
        text += big.entries[k] + "\n";
        break;
    }
  }
  const auto parsed = SparseIntervalMatrixFromTriplets(text);
  ASSERT_TRUE(parsed.has_value());
  ExpectIdentical(*parsed, big.matrix);
  ExpectAgreesWithOracle(text);

  // No trailing newline.
  const std::string sorted = big.Render(big.entries.size(), big.entries);
  const auto unterminated =
      SparseIntervalMatrixFromTriplets(sorted.substr(0, sorted.size() - 1));
  ASSERT_TRUE(unterminated.has_value());
  ExpectIdentical(*unterminated, big.matrix);
}

TEST(TripletsChunkTest, RowsOutOfOrderAcrossChunksMatchFromTriplets) {
  const BigStream& big = Big();
  // The second half of the stream first: row order breaks once, in the
  // middle of a multi-chunk file, so the FromTriplets route must run.
  std::vector<std::string> lines(big.entries.begin() + big.entries.size() / 2,
                                 big.entries.end());
  lines.insert(lines.end(), big.entries.begin(),
               big.entries.begin() + big.entries.size() / 2);
  const std::string text = big.Render(lines.size(), lines);
  const auto parsed = SparseIntervalMatrixFromTriplets(text);
  ASSERT_TRUE(parsed.has_value());
  ExpectIdentical(*parsed,
                  SparseIntervalMatrix::FromTriplets(400, 400, big.Triplets(lines)));
  ExpectIdentical(*parsed, big.matrix);
  ExpectAgreesWithOracle(text);
}

TEST(TripletsChunkTest, OrderBreakExactlyOnAChunkBoundary) {
  // 32768 entry lines padded to 64 bytes make a 2 MiB body, which the
  // reader splits in two after the line holding its middle byte (line
  // 16384, 0-based). Each rotation breaks row order at one line near that
  // cut; r = 16383 breaks it exactly between the chunks, where only the
  // cross-chunk order check can see it.
  std::vector<std::string> sorted;
  std::vector<IntervalTriplet> triplets;
  for (size_t i = 1; i <= 128; ++i) {
    for (size_t j = 1; j <= 256; ++j) {
      std::string line = std::to_string(i) + " " + std::to_string(j) + " 1 2";
      line.resize(63, ' ');
      sorted.push_back(line);
      triplets.push_back({i - 1, j - 1, Interval(1.0, 2.0)});
    }
  }
  const SparseIntervalMatrix want =
      SparseIntervalMatrix::FromTriplets(128, 256, triplets);
  for (size_t r = 16381; r <= 16386; ++r) {
    std::string text = std::string(kHeader) + "128 256 32768\n";
    for (size_t k = 0; k < sorted.size(); ++k) {
      text += sorted[(k + r) % sorted.size()] + "\n";
    }
    const auto parsed = SparseIntervalMatrixFromTriplets(text);
    ASSERT_TRUE(parsed.has_value()) << "rotation " << r;
    ExpectIdentical(*parsed, want);
  }
}

TEST(TripletsChunkTest, DuplicateCellSplitAcrossChunks) {
  const BigStream& big = Big();
  // The first cell again, at the end of the file, with another interval.
  std::vector<std::string> lines = big.entries;
  std::istringstream first(lines.front());
  size_t i = 0, j = 0;
  first >> i >> j;
  lines.push_back(std::to_string(i) + " " + std::to_string(j) + " -5 5");
  const std::string text = big.Render(lines.size(), lines);

  std::string error;
  EXPECT_FALSE(
      SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kReject, &error));
  EXPECT_EQ(error, "line " + std::to_string(lines.size() + 2) +
                       ": duplicate cell (" + std::to_string(i) + ", " +
                       std::to_string(j) + ")");

  const auto merged =
      SparseIntervalMatrixFromTriplets(text, DuplicatePolicy::kMergeHull);
  ASSERT_TRUE(merged.has_value());
  ExpectIdentical(*merged,
                  SparseIntervalMatrix::FromTriplets(400, 400, big.Triplets(lines)));
  EXPECT_EQ(merged->At(i - 1, j - 1), Interval(-5.0, 5.0));
}

TEST(TripletsChunkTest, BadLinesReportTheFirstInFileOrder) {
  const BigStream& big = Big();
  const size_t n = big.entries.size();
  std::vector<std::string> lines = big.entries;
  lines[n - 2] += " junk";  // in the last chunk
  std::string error;
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(big.Render(n, lines),
                                                DuplicatePolicy::kReject, &error));
  // Entry k sits on line k + 3 (header, size line, 1-based).
  EXPECT_EQ(error, "line " + std::to_string(n + 1) +
                       ": trailing text after i j lo hi");

  lines[10] = "1 401 0 1";  // in the first chunk too: it wins
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(big.Render(n, lines),
                                                DuplicatePolicy::kReject, &error));
  EXPECT_EQ(error, "line 13: column 401 outside 1..400");
}

TEST(TripletsChunkTest, EntryCountOffByOne) {
  const BigStream& big = Big();
  const size_t n = big.entries.size();
  std::string error;
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      big.Render(n - 1, big.entries), DuplicatePolicy::kReject, &error));
  EXPECT_EQ(error, "line " + std::to_string(n + 2) +
                       ": more entry lines than the declared nnz " +
                       std::to_string(n - 1));
  EXPECT_FALSE(SparseIntervalMatrixFromTriplets(
      big.Render(n + 1, big.entries), DuplicatePolicy::kMergeHull, &error));
  EXPECT_EQ(error, "line " + std::to_string(n + 2) + ": input ends after " +
                       std::to_string(n) + " entry lines of the declared nnz " +
                       std::to_string(n + 1));
}

// -- File forms ----------------------------------------------------------------

std::string WriteTemp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

TEST(TripletsFileTest, LoadMatchesParsingTheSameBytes) {
  const BigStream& big = Big();
  std::vector<std::string> shuffled = big.entries;
  std::reverse(shuffled.begin(), shuffled.end());
  const std::string texts[] = {
      "",
      "\n\n",
      "%%ivmf interval coordinate\n2 2 1\n1 1 0 1",
      "%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n",
      "%%ivmf interval coordinate\n2 2 2\n1 1 0 1\n1 1 0 2\n",
      big.Render(big.entries.size(), big.entries),
      big.Render(shuffled.size(), shuffled),
  };
  for (size_t k = 0; k < std::size(texts); ++k) {
    const std::string path =
        WriteTemp("ivmf_load_" + std::to_string(k) + ".tri", texts[k]);
    std::string parse_error, load_error;
    const auto parsed = SparseIntervalMatrixFromTriplets(
        texts[k], DuplicatePolicy::kReject, &parse_error);
    const auto loaded =
        LoadSparseIntervalTriplets(path, DuplicatePolicy::kReject, &load_error);
    ASSERT_EQ(parsed.has_value(), loaded.has_value()) << "case " << k;
    if (parsed) ExpectIdentical(*loaded, *parsed);
    EXPECT_EQ(load_error, parse_error) << "case " << k;
  }

  std::string error;
  const std::string missing = ::testing::TempDir() + "/ivmf_no_such_file.tri";
  EXPECT_FALSE(
      LoadSparseIntervalTriplets(missing, DuplicatePolicy::kReject, &error));
  EXPECT_NE(error.find(missing), std::string::npos) << error;
}

TEST(TripletsFileTest, PipesAreReadThroughTheStream) {
  const std::string path = ::testing::TempDir() + "/ivmf_triplets_fifo";
  ::unlink(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string text = "%%ivmf interval coordinate\n2 2 1\n2 2 0 1\n";
  for (int use_loader = 0; use_loader < 2; ++use_loader) {
    std::thread writer([&] {
      std::ofstream out(path, std::ios::binary);
      out << text;
    });
    if (use_loader) {
      const auto m = LoadSparseIntervalTriplets(path);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->At(1, 1), Interval(0.0, 1.0));
    } else {
      const std::optional<std::string> read =
          io_internal::ReadFileToString(path);
      ASSERT_TRUE(read.has_value());
      EXPECT_EQ(*read, text);
    }
    writer.join();
  }
  ::unlink(path.c_str());
}

TEST(TripletsFileTest, ReadFileToStringReadsEveryByte) {
  std::string bytes("binary\0with nul\r\n", 17);
  bytes += std::string(3 << 20, 'x');
  bytes[bytes.size() / 2] = '\0';
  const std::optional<std::string> read =
      io_internal::ReadFileToString(WriteTemp("ivmf_bytes.bin", bytes));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, bytes);
  EXPECT_EQ(io_internal::ReadFileToString(WriteTemp("ivmf_empty.bin", "")),
            std::string());
  EXPECT_FALSE(io_internal::ReadFileToString(::testing::TempDir() +
                                             "/ivmf_no_such_file.bin"));
  // A directory is not sized (its reported size is not its content).
  EXPECT_NO_THROW(io_internal::ReadFileToString(::testing::TempDir()));
  std::string error;
  EXPECT_FALSE(LoadSparseIntervalTriplets(::testing::TempDir(),
                                          DuplicatePolicy::kReject, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ivmf
