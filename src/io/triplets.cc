#include "io/triplets.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "base/parallel.h"
#include "io/file_util.h"

namespace ivmf {

using io_internal::FormatDouble;
using io_internal::ReadFileToString;
using io_internal::WriteStringToFile;

std::string SparseIntervalMatrixToTriplets(const SparseIntervalMatrix& m,
                                           int precision) {
  std::string out = kTripletHeader;
  out += "\n";
  out += std::to_string(m.rows()) + " " + std::to_string(m.cols()) + " " +
         std::to_string(m.nnz()) + "\n";
  const std::vector<size_t>& row_ptr = m.row_ptr();
  const std::vector<size_t>& col_idx = m.col_idx();
  const std::vector<double>& lo = m.lower_values();
  const std::vector<double>& hi = m.upper_values();
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      out += std::to_string(i + 1);
      out += " ";
      out += std::to_string(col_idx[k] + 1);
      out += " ";
      out += FormatDouble(lo[k], precision);
      out += " ";
      out += FormatDouble(hi[k], precision);
      out += "\n";
    }
  }
  return out;
}

namespace {

static_assert(sizeof(size_t) == 8, "entry keys pack two indices into size_t");

// Declared dimensions beyond 2^27 are rejected before anything is
// allocated — the CSR row pointer alone would exceed a GiB; matrices that
// large are built through the in-memory API. The bound also lets an
// entry's 0-based (row, col) pack into one key, row << 32 | col, whose
// order is the row-major order.
constexpr size_t kMaxDimension = size_t{1} << 27;
constexpr size_t kColumnMask = 0xffffffffu;

// The body is parsed in chunks of about kChunkBytes, at most
// kChunksPerThread per pool thread; inputs under a MiB are one chunk.
constexpr size_t kChunkBytes = size_t{1} << 20;
constexpr size_t kChunksPerThread = 4;

// The whitespace `istream >>` skips before a field in the C locale (a line
// never holds '\n').
const char* SkipFieldSpace(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\v' ||
                      *p == '\f')) {
    ++p;
  }
  return p;
}

// False for the lines the format skips: blank (only ' ', '\t', '\r') or a
// comment, whose first other character is '%'.
bool IsContentLine(const char* p, const char* end) {
  while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p != end && *p != '%';
}

const char* LineEnd(const char* p, const char* end) {
  const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
  return nl != nullptr ? static_cast<const char*>(nl) : end;
}

// Calls fn(begin, end) for each line of [p, end), without its '\n' (the
// last line may lack one), until fn returns false.
template <typename Fn>
void ForEachLine(const char* p, const char* end, Fn&& fn) {
  while (p < end) {
    const char* line_end = LineEnd(p, end);
    if (!fn(p, line_end) || line_end == end) return;
    p = line_end + 1;
  }
}

enum class FieldStatus { kOk, kUnreadable, kNegative };

// One size or index, read as `istream >> size_t` reads it (an optional
// '+', decimal digits; overflow fails) except that a leading '-' fails
// too: the stream negates modulo 2^64, so "-18446744073709551615" read
// as 1.
FieldStatus ReadCount(const char*& p, const char* end, size_t& value) {
  p = SkipFieldSpace(p, end);
  if (p != end && *p == '-') return FieldStatus::kNegative;
  if (p != end && *p == '+') ++p;
  const auto [ptr, ec] = std::from_chars(p, end, value);
  if (ec != std::errc()) return FieldStatus::kUnreadable;
  p = ptr;
  return FieldStatus::kOk;
}

// One endpoint, read as `istream >> double` reads it: an optional sign,
// then the decimal form strtod takes. from_chars rounds correctly, as
// strtod does, but reports underflow as out of range; such a token is
// re-read with strtod, which keeps it at 0 or a subnormal (and overflow
// at inf, which the caller rejects as non-finite). When from_chars stops
// short of a token the stream would consume whole ("1e", "1e+"), the
// stop lands on the 'e', which no later field or the end-of-line check
// accepts, so the line fails either way.
bool ReadEndpoint(const char*& p, const char* end, double& value) {
  p = SkipFieldSpace(p, end);
  const char* const token = p;
  if (p != end && *p == '+') {
    ++p;
    if (p != end && *p == '-') return false;
  }
  const auto [ptr, ec] = std::from_chars(p, end, value);
  if (ec == std::errc::result_out_of_range) {
    const std::string copy(token, ptr);
    char* parsed = nullptr;
    value = std::strtod(copy.c_str(), &parsed);
    if (parsed != copy.c_str() + copy.size()) return false;
  } else if (ec != std::errc()) {
    return false;
  }
  p = ptr;
  return true;
}

struct Entry {
  size_t row = 0;  // 1-based, as written
  size_t col = 0;
  double lo = 0.0;
  double hi = 0.0;
};

// Parses and checks one entry line [p, end); on failure returns false with
// the broken rule in *reason.
bool ParseEntry(const char* p, const char* end, size_t rows, size_t cols,
                Entry& entry, std::string* reason) {
  const char* const kIndexNames[] = {"row", "column"};
  size_t* const indices[] = {&entry.row, &entry.col};
  for (size_t k = 0; k < 2; ++k) {
    const FieldStatus status = ReadCount(p, end, *indices[k]);
    if (status != FieldStatus::kOk) {
      *reason = status == FieldStatus::kNegative
                    ? std::string("negative ") + kIndexNames[k] + " index"
                    : std::string("cannot read the ") + kIndexNames[k] +
                          " index";
      return false;
    }
  }
  if (!ReadEndpoint(p, end, entry.lo)) {
    *reason = "cannot read lo";
    return false;
  }
  if (!ReadEndpoint(p, end, entry.hi)) {
    *reason = "cannot read hi";
    return false;
  }
  if (SkipFieldSpace(p, end) != end) {
    *reason = "trailing text after i j lo hi";
    return false;
  }
  if (entry.row < 1 || entry.row > rows) {
    *reason = "row " + std::to_string(entry.row) + " outside 1.." +
              std::to_string(rows);
    return false;
  }
  if (entry.col < 1 || entry.col > cols) {
    *reason = "column " + std::to_string(entry.col) + " outside 1.." +
              std::to_string(cols);
    return false;
  }
  if (!std::isfinite(entry.lo) || !std::isfinite(entry.hi)) {
    *reason = "non-finite endpoint";
    return false;
  }
  if (entry.lo > entry.hi) {
    *reason = "lo " + FormatDouble(entry.lo, 17) + " > hi " +
              FormatDouble(entry.hi, 17);
    return false;
  }
  return true;
}

// A run of whole lines of the body, parsed by one task of each pass.
struct Chunk {
  const char* begin = nullptr;
  const char* end = nullptr;
  // Pass 1.
  size_t entries = 0;   // entry lines (neither blank nor comment)
  size_t newlines = 0;
  // Prefix sums of pass 1.
  size_t first_entry = 0;  // index of the chunk's first entry in the file
  size_t first_line = 0;   // 1-based number of its first line
  // Pass 2.
  bool increasing = true;  // keys strictly increase within the chunk
  size_t error_line = 0;   // first bad line; 0 when none
  std::string error;
};

// Splits [begin, end) after newlines into chunks of about equal size.
std::vector<Chunk> SplitBody(const char* begin, const char* end) {
  const size_t bytes = static_cast<size_t>(end - begin);
  const size_t wanted =
      std::max<size_t>(1, (bytes + kChunkBytes - 1) / kChunkBytes);
  const size_t count =
      std::min(wanted, kChunksPerThread * SuggestedThreads(wanted));
  std::vector<Chunk> chunks(count);
  const char* cut = begin;
  for (size_t k = 0; k < count; ++k) {
    chunks[k].begin = cut;
    if (k + 1 == count) {
      cut = end;
    } else {
      cut = LineEnd(std::max(cut, begin + bytes / count * (k + 1)), end);
      if (cut != end) ++cut;
    }
    chunks[k].end = cut;
  }
  return chunks;
}

// Pass 1: counts the chunk's entry lines and newlines.
void CountLines(Chunk& chunk) {
  ForEachLine(chunk.begin, chunk.end, [&chunk](const char* p, const char* e) {
    chunk.entries += IsContentLine(p, e);
    chunk.newlines += e != chunk.end;
    return true;
  });
}

// Pass 2: parses and checks every entry line of the chunk, stopping at its
// first bad line. With `keys` non-null (the line count matched nnz), each
// entry lands at its file index: the packed key, lo and hi.
void ParseChunk(Chunk& chunk, size_t rows, size_t cols, size_t nnz,
                size_t* keys, double* lo, double* hi) {
  size_t line = chunk.first_line;
  size_t index = chunk.first_entry;
  ForEachLine(chunk.begin, chunk.end, [&](const char* p, const char* e) {
    const size_t this_line = line++;
    if (!IsContentLine(p, e)) return true;
    Entry entry;
    if (!ParseEntry(p, e, rows, cols, entry, &chunk.error)) {
      chunk.error_line = this_line;
      return false;
    }
    if (index >= nnz) {
      chunk.error_line = this_line;
      chunk.error = "more entry lines than the declared nnz " +
                    std::to_string(nnz);
      return false;
    }
    if (keys != nullptr) {
      const size_t key = (entry.row - 1) << 32 | (entry.col - 1);
      if (index > chunk.first_entry && key <= keys[index - 1]) {
        chunk.increasing = false;
      }
      keys[index] = key;
      lo[index] = entry.lo;
      hi[index] = entry.hi;
    }
    ++index;
    return true;
  });
}

// The line of the file's entry number `index`.
size_t LineOfEntry(const std::vector<Chunk>& chunks, size_t index) {
  const Chunk* chunk = &chunks.front();
  for (const Chunk& c : chunks) {
    if (c.entries > 0 && c.first_entry <= index) chunk = &c;
  }
  size_t line = chunk->first_line;
  size_t seen = chunk->first_entry;
  size_t found = line;
  ForEachLine(chunk->begin, chunk->end, [&](const char* p, const char* e) {
    if (IsContentLine(p, e) && seen++ == index) {
      found = line;
      return false;
    }
    ++line;
    return true;
  });
  return found;
}

// The first entry, in file order, whose cell an earlier entry already
// named; keys.size() when every cell is distinct.
size_t FirstRepeatedEntry(const std::vector<size_t>& keys) {
  std::vector<std::pair<size_t, size_t>> order(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) order[k] = {keys[k], k};
  std::sort(order.begin(), order.end());
  size_t first = keys.size();
  for (size_t k = 1; k < order.size(); ++k) {
    if (order[k].first == order[k - 1].first) {
      first = std::min(first, order[k].second);
    }
  }
  return first;
}

std::nullopt_t Fail(std::string* error, size_t line,
                    const std::string& reason) {
  if (error != nullptr) *error = "line " + std::to_string(line) + ": " + reason;
  return std::nullopt;
}

// The one triplet reader. The header and size line are read serially; the
// body is split at newlines into chunks and read in two ParallelFor passes.
// Pass 1 counts entry lines, so a count that disagrees with the declared
// nnz is known before any entry storage exists. Pass 2 parses each chunk
// into the final arrays at the chunk's offset. A stream whose (row, col)
// strictly increases — what SparseIntervalMatrixToTriplets writes — then
// becomes CSR directly; any other order goes through FromTriplets.
std::optional<SparseIntervalMatrix> ParseTriplets(std::string_view text,
                                                  DuplicatePolicy duplicates,
                                                  std::string* error) {
  const char* const end = text.data() + text.size();

  // Header: the first non-blank line, as LooksLikeTriplets finds it.
  const size_t start = std::min(text.find_first_not_of(" \t\r\n"), text.size());
  size_t line = 1 + static_cast<size_t>(
                        std::count(text.data(), text.data() + start, '\n'));
  if (text.compare(start, sizeof(kTripletHeader) - 1, kTripletHeader) != 0) {
    return Fail(error, line,
                std::string("missing the \"") + kTripletHeader + "\" header");
  }

  // Size line: the next line that is neither blank nor a comment.
  const char* p = text.data() + start;
  const char* line_end = LineEnd(p, end);
  do {
    if (line_end == end || line_end + 1 == end) {
      return Fail(error, line, "no size line after the header");
    }
    p = line_end + 1;
    line_end = LineEnd(p, end);
    ++line;
  } while (!IsContentLine(p, line_end));
  const char* const kSizeNames[] = {"rows", "cols", "nnz"};
  size_t sizes[3];
  for (size_t k = 0; k < 3; ++k) {
    const FieldStatus status = ReadCount(p, line_end, sizes[k]);
    if (status != FieldStatus::kOk) {
      return Fail(error, line,
                  (status == FieldStatus::kNegative ? "negative "
                                                    : "cannot read ") +
                      std::string(kSizeNames[k]));
    }
  }
  if (SkipFieldSpace(p, line_end) != line_end) {
    return Fail(error, line, "trailing text after rows cols nnz");
  }
  const size_t rows = sizes[0], cols = sizes[1], nnz = sizes[2];
  if (rows > kMaxDimension || cols > kMaxDimension) {
    return Fail(error, line,
                "rows or cols above " + std::to_string(kMaxDimension));
  }
  if (nnz > 0 && (rows == 0 || cols == 0 || (nnz - 1) / rows >= cols)) {
    return Fail(error, line,
                "nnz " + std::to_string(nnz) + " exceeds rows x cols");
  }

  const char* const body = line_end == end ? end : line_end + 1;
  std::vector<Chunk> chunks = SplitBody(body, end);
  ParallelFor(0, chunks.size(), [&chunks](size_t c) { CountLines(chunks[c]); });
  size_t total = 0;
  size_t next_line = line + 1;
  for (Chunk& c : chunks) {
    c.first_entry = total;
    c.first_line = next_line;
    total += c.entries;
    next_line += c.newlines;
  }

  std::vector<size_t> keys;
  std::vector<double> lo, hi;
  if (total == nnz) {
    // The three arrays are zero-filled (and first touched) in parallel.
    ParallelFor(0, 3, [&](size_t k) {
      if (k == 0) {
        keys.resize(nnz);
      } else {
        (k == 1 ? lo : hi).resize(nnz);
      }
    });
  }
  ParallelFor(0, chunks.size(), [&](size_t c) {
    ParseChunk(chunks[c], rows, cols, nnz, total == nnz ? keys.data() : nullptr,
               lo.data(), hi.data());
  });
  for (const Chunk& c : chunks) {
    if (c.error_line != 0) return Fail(error, c.error_line, c.error);
  }
  if (total != nnz) {  // fewer entries: more would have failed in pass 2
    const size_t last_line =
        next_line - 1 + (body != end && end[-1] != '\n' ? 1 : 0);
    return Fail(error, last_line,
                "input ends after " + std::to_string(total) +
                    " entry lines of the declared nnz " + std::to_string(nnz));
  }

  bool increasing = true;
  for (const Chunk& c : chunks) {
    increasing = increasing && c.increasing &&
                 (c.entries == 0 || c.first_entry == 0 ||
                  keys[c.first_entry - 1] < keys[c.first_entry]);
  }
  if (increasing) {
    // Row r starts at the first key at or past (r, 0).
    std::vector<size_t> row_ptr(rows + 1);
    ParallelFor(0, rows + 1, [&](size_t r) {
      row_ptr[r] = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), r << 32) - keys.begin());
    });
    ParallelFor(0, nnz, [&keys](size_t k) { keys[k] &= kColumnMask; });
    return SparseIntervalMatrix::FromCsr(rows, cols, std::move(row_ptr),
                                         std::move(keys), std::move(lo),
                                         std::move(hi));
  }

  std::vector<IntervalTriplet> triplets(nnz);
  for (size_t k = 0; k < nnz; ++k) {
    triplets[k] = {keys[k] >> 32, keys[k] & kColumnMask,
                   Interval(lo[k], hi[k])};
  }
  std::vector<double>().swap(lo);
  std::vector<double>().swap(hi);
  SparseIntervalMatrix m =
      SparseIntervalMatrix::FromTriplets(rows, cols, std::move(triplets));
  // FromTriplets hulls duplicate coordinates. Under kReject a serialized
  // stream is sorted and unique, so a shrunken entry count means the file
  // double-declared a cell — reject it instead of guessing which value was
  // meant. Under kMergeHull the hull IS the requested semantics and the
  // declared nnz only counts entry lines.
  if (duplicates == DuplicatePolicy::kReject && m.nnz() != nnz) {
    const size_t repeated = FirstRepeatedEntry(keys);
    return Fail(error, LineOfEntry(chunks, repeated),
                "duplicate cell (" + std::to_string((keys[repeated] >> 32) + 1) +
                    ", " +
                    std::to_string((keys[repeated] & kColumnMask) + 1) + ")");
  }
  return m;
}

// A non-empty regular file mapped read-only, unmapped on destruction.
// Anything else (a missing or empty file, a pipe) stays unmapped; a pipe
// is not even opened, so ReadFileToString can still read it.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      const size_t bytes = static_cast<size_t>(st.st_size);
      void* base = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        base_ = base;
        bytes_ = bytes;
      }
    }
    ::close(fd);
  }
  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  bool mapped() const { return base_ != nullptr; }
  std::string_view view() const {
    return {static_cast<const char*>(base_), bytes_};
  }

 private:
  void* base_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace

std::optional<SparseIntervalMatrix> SparseIntervalMatrixFromTriplets(
    const std::string& text, DuplicatePolicy duplicates, std::string* error) {
  return ParseTriplets(text, duplicates, error);
}

bool LooksLikeTriplets(const std::string& text) {
  const size_t start = text.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) return false;
  return text.compare(start, sizeof(kTripletHeader) - 1, kTripletHeader) == 0;
}

bool SaveSparseIntervalTriplets(const std::string& path,
                                const SparseIntervalMatrix& m, int precision) {
  return WriteStringToFile(path, SparseIntervalMatrixToTriplets(m, precision));
}

std::optional<SparseIntervalMatrix> LoadSparseIntervalTriplets(
    const std::string& path, DuplicatePolicy duplicates, std::string* error) {
  {
    const MappedFile file(path);
    if (file.mapped()) return ParseTriplets(file.view(), duplicates, error);
  }
  errno = 0;
  const std::optional<std::string> text = ReadFileToString(path);
  if (!text) {
    if (error != nullptr) {
      *error = "cannot read " + path;
      if (errno != 0) *error += std::string(": ") + std::strerror(errno);
    }
    return std::nullopt;
  }
  return ParseTriplets(*text, duplicates, error);
}

}  // namespace ivmf
