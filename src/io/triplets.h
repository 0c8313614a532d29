// Triplet (coordinate) serialization for sparse interval matrices — a
// MatrixMarket-style text format:
//
//   %%ivmf interval coordinate
//   % optional comment lines
//   rows cols nnz
//   i j lo hi
//   ...
//
// Entries use 1-based indices like MatrixMarket; `lo hi` are the interval
// endpoints (write lo == hi for scalar entries). Lines starting with '%'
// are comments; entry order is arbitrary. Duplicate-cell semantics are
// unified with SparseIntervalMatrix::FromTriplets through DuplicatePolicy:
// by default each (i, j) cell may appear at most once — a serialized stream
// is sorted and unique, so a duplicated cell is inconsistent with the
// declared entry count and rejected — but callers ingesting raw observation
// logs can pass DuplicatePolicy::kMergeHull to get exactly the in-memory
// constructor's hull-merge, so the same data yields the same matrix through
// either path. This is the on-disk form for recommender-scale matrices
// whose dense CSV would be dominated by "0:0" cells.
//
// Grammar, as the reader applies it:
//   - Blank lines (only spaces, tabs and CRs) may precede the header line;
//     text after the header on its line is ignored.
//   - Blank lines and comment lines (first other character '%') are
//     skipped anywhere after the header.
//   - The size line holds three non-negative decimal integers, entry lines
//     two 1-based indices and two decimal endpoints. A field may carry a
//     leading '+'; a '-' on a size or an index is an error. Fields are
//     separated by optional whitespace (a number ends where its digits do,
//     as with `istream >>`), and nothing may follow the last field.
//   - Endpoints must be finite with lo <= hi; values below the double range
//     read as 0 (or a subnormal), values above it are rejected.

#ifndef IVMF_IO_TRIPLETS_H_
#define IVMF_IO_TRIPLETS_H_

#include <optional>
#include <string>

#include "sparse/sparse_interval_matrix.h"

namespace ivmf {

// Magic header expected on the first non-blank line of a triplet stream.
inline constexpr char kTripletHeader[] = "%%ivmf interval coordinate";

// -- In-memory (string) forms ------------------------------------------------

// Renders the matrix in the coordinate format above.
std::string SparseIntervalMatrixToTriplets(const SparseIntervalMatrix& m,
                                           int precision = 12);

// Parses coordinate text. Returns std::nullopt on malformed input (missing
// header or size line, unparsable or non-finite entries, out-of-range
// indices, misordered intervals, wrong entry line count, declared sizes
// beyond the parser's sanity bounds). Never aborts or over-allocates on
// corrupt size declarations: entry storage is sized only once the entry
// lines actually present match the declared nnz. Duplicate cells follow
// `duplicates`: kReject (default) treats them as malformed, kMergeHull
// merges them exactly like SparseIntervalMatrix::FromTriplets (the
// declared nnz then counts entry lines; the parsed matrix may hold fewer
// cells).
//
// On failure, *error (when non-null) receives the first bad line in file
// order and the rule it breaks, e.g. "line 1234: column 5001 outside
// 1..5000". A wrong entry count is reported at the first surplus entry
// line, or at the last line when entries are missing; a duplicated cell
// at its second occurrence, once every line has parsed.
//
// Large inputs parse in parallel on the shared ThreadPool; the result does
// not depend on the thread count.
std::optional<SparseIntervalMatrix> SparseIntervalMatrixFromTriplets(
    const std::string& text,
    DuplicatePolicy duplicates = DuplicatePolicy::kReject,
    std::string* error = nullptr);

// True when `text` starts with the triplet header (leading whitespace
// allowed) — the cheap sniff ivmf_decompose uses to tell triplet files from
// dense interval CSV.
bool LooksLikeTriplets(const std::string& text);

// -- File forms --------------------------------------------------------------

bool SaveSparseIntervalTriplets(const std::string& path,
                                const SparseIntervalMatrix& m,
                                int precision = 12);

// Reads a triplet file: the same matrix, or the same *error, as
// SparseIntervalMatrixFromTriplets on the file's bytes. Regular files are
// parsed in place from a read-only mapping (unmapped before returning);
// pipes and other unmappable inputs are read into memory first. A file
// that cannot be opened sets *error to its path and the system's reason.
std::optional<SparseIntervalMatrix> LoadSparseIntervalTriplets(
    const std::string& path,
    DuplicatePolicy duplicates = DuplicatePolicy::kReject,
    std::string* error = nullptr);

}  // namespace ivmf

#endif  // IVMF_IO_TRIPLETS_H_
