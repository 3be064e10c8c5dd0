#include "trace/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

#include "trace/fast_parse.hpp"
#include "trace/mmap_source.hpp"
#include "trace/record_codec.hpp"

namespace gg {

namespace {

// Strings may contain spaces; they are written percent-escaped so that every
// record stays a single whitespace-separated line.
std::string escape(std::string_view s) {
  if (s.empty()) return "%";  // sentinel: a lone '%' is otherwise invalid
  std::string out;
  out.reserve(s.size());
  static const char* hex = "0123456789ABCDEF";
  for (char c : s) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\t') {
      out += '%';
      out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
      out += hex[static_cast<unsigned char>(c) & 0xF];
    } else {
      out += c;
    }
  }
  return out;
}

// Encoded records are batched into one buffer per write.
constexpr size_t kWriteBatchBytes = 1 << 16;

// The optional<Trace> loaders: strict, no validation, first error message.
constexpr LoadOptions kStrictNoValidate{LoadMode::Strict, false};

std::optional<Trace> strict_trace(LoadResult&& r, std::string* error) {
  if (!r.ok()) {
    if (error) {
      const LoadDiagnostic* d = r.first_error();
      *error = d ? d->message : "load failed";
    }
    return std::nullopt;
  }
  return std::move(r.trace);
}

// Shortest digits that read back as the same double.
std::string shortest(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- binary helpers (little-endian native; checked by magic) ---------------

void put_u64(std::ostream& os, u64 v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u32(std::ostream& os, u32 v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_str(std::ostream& os, const std::string& s) {
  put_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

// One record section: the count, then the fixed-stride records.
template <class Rec>
void put_section(std::ostream& os, const std::vector<Rec>& recs) {
  constexpr size_t kStride = codec::kRecordBytes<codec::Ggtb3, Rec>;
  constexpr size_t kBatch = kWriteBatchBytes / kStride;
  put_u64(os, recs.size());
  std::string buf;
  for (size_t i = 0; i < recs.size(); i += kBatch) {
    const size_t n = std::min(kBatch, recs.size() - i);
    buf.resize(n * kStride);
    char* p = buf.data();
    for (size_t k = 0; k < n; ++k) p = codec::put<codec::Ggtb3>(p, recs[i + k]);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

constexpr char kBinMagic[] = "GGTB3";  // v3 adds worker stats + profiling meta

}  // namespace

void save_trace(const Trace& trace, std::ostream& os) {
  os << "ggtrace " << kTraceVersion << '\n';
  const TraceMeta& m = trace.meta;
  os << "meta " << escape(m.program) << ' ' << escape(m.runtime) << ' '
     << escape(m.topology) << ' ' << m.num_workers << ' ' << m.num_cores
     << ' ' << shortest(m.ghz) << ' ' << m.region_start << ' '
     << m.region_end << '\n';
  // v3 profiling-substrate metadata (a separate record so v1/v2 `meta` lines
  // keep their field layout).
  os << "metax " << (m.profiled ? 1 : 0) << ' ' << m.trace_buffer_bytes << ' '
     << escape(m.clock_source) << '\n';
  for (const std::string& n : m.notes) os << "note " << escape(n) << '\n';
  // String table (skip the implicit empty string at id 0).
  const auto& strs = trace.strings.all();
  for (size_t i = 1; i < strs.size(); ++i)
    os << "str " << i << ' ' << escape(strs[i]) << '\n';
  std::string buf;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    for (const Rec& r : schema::Record<Rec>::of(trace)) {
      codec::append_text(buf, r);
      if (buf.size() >= kWriteBatchBytes) {
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
  });
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

LoadResult load_trace_ex(std::istream& is, const LoadOptions& opts) {
  const std::string buf = slurp_stream(is);
  return parse_trace_text(buf, opts);
}

std::optional<Trace> load_trace(std::istream& is, std::string* error) {
  return strict_trace(load_trace_ex(is, kStrictNoValidate), error);
}

void save_trace_binary(const Trace& trace, std::ostream& os) {
  os.write(kBinMagic, 5);
  const TraceMeta& m = trace.meta;
  put_str(os, m.program);
  put_str(os, m.runtime);
  put_str(os, m.topology);
  put_u32(os, static_cast<u32>(m.num_workers));
  put_u32(os, static_cast<u32>(m.num_cores));
  // Micro-GHz fixed point, rounded to the nearest so a value like 4.1 reads
  // back exactly.
  put_u64(os, static_cast<u64>(std::llround(m.ghz * 1e6)));
  put_u64(os, m.region_start);
  put_u64(os, m.region_end);
  put_u64(os, m.notes.size());
  for (const std::string& n : m.notes) put_str(os, n);

  const auto& strs = trace.strings.all();
  put_u64(os, strs.size());
  for (size_t i = 1; i < strs.size(); ++i) put_str(os, strs[i]);

  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    if constexpr (std::is_same_v<Rec, WorkerStatsRec>) {
      // v3 trailer: profiling-substrate metadata ahead of the worker stats.
      put_u32(os, m.profiled ? 1 : 0);
      put_u64(os, m.trace_buffer_bytes);
      put_str(os, m.clock_source);
    }
    put_section(os, schema::Record<Rec>::of(trace));
  });
}

LoadResult load_trace_binary_ex(std::istream& is, const LoadOptions& opts) {
  const std::string buf = slurp_stream(is);
  return parse_trace_binary(buf, opts);
}

std::optional<Trace> load_trace_binary(std::istream& is, std::string* error) {
  return strict_trace(load_trace_binary_ex(is, kStrictNoValidate), error);
}

bool save_trace_file(const Trace& trace, const std::string& path) {
  const bool binary = has_suffix(path, ".ggbin");
  std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
  if (!os) return false;
  if (binary) {
    save_trace_binary(trace, os);
  } else {
    save_trace(trace, os);
  }
  return static_cast<bool>(os);
}

LoadResult load_trace_file_ex(const std::string& path,
                              const LoadOptions& opts) {
  const bool binary = has_suffix(path, ".ggbin");
  // Regular files are mapped zero-copy; pipes and other non-regular files
  // are read into a buffer. Either way the parser sees one view of the whole
  // file, so byte offsets in diagnostics are file offsets.
  MmapSource src;
  if (!src.open(path)) {
    LoadResult res;
    res.source = path;
    res.diagnostics.push_back(LoadDiagnostic{LoadErrorCode::CannotOpen, 0,
                                             !binary, "file",
                                             "cannot open " + path});
    return res;
  }
  LoadResult res = binary ? parse_trace_binary(src.view(), opts)
                          : parse_trace_text(src.view(), opts);
  res.source = path;
  return res;
}

std::optional<Trace> load_trace_file(const std::string& path,
                                     std::string* error) {
  return strict_trace(load_trace_file_ex(path, kStrictNoValidate), error);
}

}  // namespace gg
