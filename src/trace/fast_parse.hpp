// Buffered trace parsing: whole-input string_view parsers. Text records are
// cut with std::from_chars over string views; binary records are decoded at
// their fixed strides over a caller-owned buffer. Both decode records with
// the schema's codecs (trace/record_codec.hpp), are reached through the
// load_trace*_ex API, and keep the Strict/Lenient/Salvage diagnostics and
// exit-code contract.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/load_result.hpp"

namespace gg {

/// Parses a complete text trace held in `buf`. Diagnostics carry line
/// numbers; field extraction follows istream semantics (codec::Cursor).
LoadResult parse_trace_text(std::string_view buf, const LoadOptions& opts = {});

/// Parses a complete binary trace held in `buf` (GGTB1/2/3). Bounds-checked;
/// a corrupt count or length can never over-read or over-allocate.
LoadResult parse_trace_binary(std::string_view buf,
                              const LoadOptions& opts = {});

/// Reads an entire file into `out` with one block read (no istreambuf
/// iterators). Returns false if the file cannot be opened.
bool read_file_contents(const std::string& path, std::string& out);

/// Drains an istream into a string with large block reads.
std::string slurp_stream(std::istream& is);

}  // namespace gg
