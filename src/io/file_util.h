// Small file / formatting helpers shared by the io/ serializers (and the
// command-line tools): whole-file reads and writes, and the %g double
// rendering every text format in this library uses.

#ifndef IVMF_IO_FILE_UTIL_H_
#define IVMF_IO_FILE_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>

namespace ivmf::io_internal {

inline std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

// Reads a whole file. A regular file is sized first and read in one call
// into one buffer of its size; anything else (a pipe, a directory, or a
// file that reports size 0) is copied through the stream buffer, which
// grows as it goes.
inline std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > 0) {
    std::string text(static_cast<size_t>(size), '\0');
    in.read(text.data(), static_cast<std::streamsize>(size));
    if (in.bad()) return std::nullopt;
    text.resize(static_cast<size_t>(in.gcount()));
    return text;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline bool WriteStringToFile(const std::string& path,
                              const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace ivmf::io_internal

#endif  // IVMF_IO_FILE_UTIL_H_
