#include "trace/fast_parse.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/par_for.hpp"
#include "trace/mmap_source.hpp"
#include "trace/record_codec.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/validate.hpp"

namespace gg {

using codec::Cursor;

namespace {

// Inverse of the writer's percent-escaping; nullopt on a malformed escape
// sequence.
std::optional<std::string> unescape(std::string_view s) {
  if (s == "%") return std::string();
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size()) return std::nullopt;
      auto nib = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = nib(s[i + 1]), lo = nib(s[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

// Finalizes, optionally salvages, optionally validates, and fills in the
// result status: the shared tail of every parser.
void finish_load(Trace&& trace, const LoadOptions& opts, LoadResult& res) {
  trace.finalize(resolve_threads(opts.threads));
  if (opts.mode == LoadMode::Salvage) {
    res.salvage = salvage_trace(trace);
    if (opts.validate) {
      const ValidationReport v = validate_trace_structured(trace);
      if (!v.ok()) {
        size_t listed = 0;
        for (const Violation& viol : v.violations) {
          if (listed++ >= 16) break;
          res.diagnostics.push_back(LoadDiagnostic{
              LoadErrorCode::InvalidStructure, 0, true, viol.where(),
              "unsalvageable: " + viol.message});
        }
        res.status = LoadStatus::Failed;
        res.trace = std::move(trace);  // kept for postmortem inspection
        return;
      }
    }
    res.status = (res.salvage.any() || !res.diagnostics.empty())
                     ? LoadStatus::Salvaged
                     : LoadStatus::Ok;
    res.trace = std::move(trace);
    return;
  }
  if (opts.validate) {
    const ValidationReport v = validate_trace_structured(trace);
    if (!v.ok()) {
      size_t listed = 0;
      for (const Violation& viol : v.violations) {
        if (listed++ >= 16) break;
        res.diagnostics.push_back(LoadDiagnostic{
            LoadErrorCode::InvalidStructure, 0, true, viol.where(),
            viol.message});
      }
      res.status = LoadStatus::Failed;
      res.trace = std::move(trace);
      return;
    }
  }
  res.status = LoadStatus::Ok;
  res.trace = std::move(trace);
}

// Rebuilds the trace's string table from collected (id, contents) pairs,
// enforcing dense ids. In Strict/Lenient a non-dense table is fatal
// (diagnostic appended, returns false); in Salvage the table is rebuilt with
// placeholders. Sorts `strs` in place.
bool apply_string_table(std::vector<std::pair<StrId, std::string>>& strs,
                        bool salv, Trace& trace, LoadResult& res) {
  auto add = [&](LoadErrorCode code, std::string msg) {
    res.diagnostics.push_back(
        LoadDiagnostic{code, 0, true, "str", std::move(msg)});
  };
  std::sort(strs.begin(), strs.end());
  bool table_ok = true;
  for (const auto& [id, s] : strs) {
    const StrId got = trace.strings.intern(s);
    if (got != id) {
      if (!salv) {
        add(LoadErrorCode::StringTableCorrupt,
            "string table ids not dense (expected " + std::to_string(id) +
                ", got " + std::to_string(got) + ")");
        return false;
      }
      table_ok = false;
      break;
    }
  }
  if (!table_ok) {
    // Salvage: rebuild a dense table, padding holes and de-duplicating
    // colliding contents with unique placeholders so every recorded id keeps
    // its original string where possible. Dangling src ids degrade to ""
    // (StringTable::get is total), so references never become unsafe.
    trace.strings = StringTable{};
    add(LoadErrorCode::StringTableCorrupt,
        "string table ids not dense; rebuilt with placeholders");
    std::map<StrId, std::string> by_id;
    u64 max_id = 0;
    for (const auto& [id, s] : strs) {
      by_id.emplace(id, s);
      max_id = std::max<u64>(max_id, id);
    }
    if (max_id > strs.size() + 1024) {
      // Garbage ids: keep the contents, abandon the numbering.
      for (const auto& [id, s] : by_id) trace.strings.intern(s);
    } else {
      for (u64 i = 1; i <= max_id; ++i) {
        auto it = by_id.find(static_cast<StrId>(i));
        std::string candidate = it != by_id.end()
                                    ? it->second
                                    : "<missing-str-" + std::to_string(i) + ">";
        StrId got = trace.strings.intern(candidate);
        while (got != i) {  // content collides with an earlier id
          candidate += "#";
          got = trace.strings.intern(candidate);
        }
      }
    }
  }
  return true;
}

}  // namespace

LoadResult parse_trace_text(std::string_view buf, const LoadOptions& opts) {
  LoadResult res;
  res.source = "<stream>";
  const bool salv = opts.mode == LoadMode::Salvage;
  auto add = [&](LoadErrorCode code, u64 line, std::string context,
                 std::string msg) {
    res.diagnostics.push_back(LoadDiagnostic{code, line, true,
                                             std::move(context),
                                             std::move(msg)});
  };

  size_t pos = 0;
  auto next_line = [&](std::string_view& line) -> bool {
    if (pos >= buf.size()) return false;
    const size_t nl = buf.find('\n', pos);
    const size_t end = nl == std::string_view::npos ? buf.size() : nl;
    line = buf.substr(pos, end - pos);
    pos = end == buf.size() ? buf.size() : end + 1;
    return true;
  };

  std::string_view line;
  if (!next_line(line)) {
    add(LoadErrorCode::EmptyInput, 0, "header", "empty input");
    return res;  // status defaults to Failed
  }
  {
    Cursor head(line);
    std::string_view magic;
    int version = 0;
    if (!(head >> magic >> version) || magic != "ggtrace") {
      add(LoadErrorCode::BadMagic, 1, "header",
          "bad header: " + std::string(line));
      return res;
    }
    if (version < 1 || version > kTraceVersion) {
      add(LoadErrorCode::UnsupportedVersion, 1, "header",
          "unsupported version " + std::to_string(version));
      if (!salv) return res;
      // Salvage: read it as the newest format we know and let the record
      // parser flag whatever does not fit.
    }
  }

  Trace trace;
  // The string table must be rebuilt with identical ids; collect then intern
  // in id order.
  std::vector<std::pair<StrId, std::string>> strs;
  int lineno = 1;
  bool aborted = false;
  while (!aborted && next_line(line)) {
    ++lineno;
    if (line.empty()) continue;
    Cursor ls(line);
    std::string_view kind;
    ls >> kind;
    // In Strict/Lenient a malformed record is fatal; in Salvage it is
    // skipped with a diagnostic and parsing continues.
    auto bad = [&]() {
      add(LoadErrorCode::MalformedRecord, static_cast<u64>(lineno),
          std::string(kind),
          "malformed " + std::string(kind) + " record at line " +
              std::to_string(lineno));
      if (!salv) aborted = true;
    };
    // The eight record kinds, decoded by the schema's text codec.
    bool record = false;
    schema::for_each_record([&](auto type) {
      using Rec = typename decltype(type)::type;
      if (record || kind != schema::Record<Rec>::tag) return;
      record = true;
      Rec r;
      if (codec::read_text(ls, r)) {
        schema::Record<Rec>::of(trace).push_back(r);
      } else {
        bad();
      }
    });
    if (record) continue;
    if (kind == "str") {
      StrId id;
      std::string_view s;
      if (!(ls >> id >> s)) {
        bad();
        continue;
      }
      auto u = unescape(s);
      if (!u) {
        bad();
        continue;
      }
      strs.emplace_back(id, *u);
    } else if (kind == "meta") {
      std::string_view program, runtime, topology;
      TraceMeta m;
      if (!(ls >> program >> runtime >> topology >> m.num_workers >>
            m.num_cores >> m.ghz >> m.region_start >> m.region_end)) {
        bad();
        continue;
      }
      auto p = unescape(program), r = unescape(runtime),
           t = unescape(topology);
      if (!p || !r || !t) {
        bad();
        continue;
      }
      m.profiled = trace.meta.profiled;
      m.trace_buffer_bytes = trace.meta.trace_buffer_bytes;
      m.clock_source = trace.meta.clock_source;
      m.notes = std::move(trace.meta.notes);
      m.program = *p;
      m.runtime = *r;
      m.topology = *t;
      trace.meta = std::move(m);
    } else if (kind == "metax") {
      int profiled = 1;
      u64 buffer_bytes = 0;
      std::string_view clock;
      if (!(ls >> profiled >> buffer_bytes >> clock)) {
        bad();
        continue;
      }
      auto c = unescape(clock);
      if (!c) {
        bad();
        continue;
      }
      trace.meta.profiled = profiled != 0;
      trace.meta.trace_buffer_bytes = buffer_bytes;
      trace.meta.clock_source = *c;
    } else if (kind == "note") {
      std::string_view n;
      if (!(ls >> n)) {
        bad();
        continue;
      }
      auto u = unescape(n);
      if (!u) {
        bad();
        continue;
      }
      trace.meta.notes.push_back(*u);
    } else {
      add(LoadErrorCode::UnknownRecordKind, static_cast<u64>(lineno),
          std::string(kind),
          "unknown record kind '" + std::string(kind) + "' at line " +
              std::to_string(lineno));
      if (opts.mode == LoadMode::Strict) aborted = true;
      // Lenient/Salvage: skip the line (forward compatibility).
    }
  }
  if (aborted) return res;  // fatal diagnostic already recorded

  if (!apply_string_table(strs, salv, trace, res)) return res;
  finish_load(std::move(trace), opts, res);
  return res;
}

namespace {

// --- binary parsing --------------------------------------------------------

// Bounds-checked cursor over a fully-buffered binary stream. Every read is
// checked against the remaining bytes, so a corrupted length/count can never
// trigger an over-read or an attempted multi-gigabyte allocation.
struct ByteReader {
  std::string_view buf;
  size_t pos = 0;

  size_t remaining() const { return buf.size() - pos; }
  bool get_u64(u64& v) {
    if (remaining() < sizeof v) return false;
    std::memcpy(&v, buf.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
  }
  bool get_u32(u32& v) {
    if (remaining() < sizeof v) return false;
    std::memcpy(&v, buf.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
  }
  bool get_str(std::string& s) {
    u64 n = 0;
    if (!get_u64(n)) return false;
    if (n > remaining()) {
      pos -= sizeof n;
      return false;
    }
    s.assign(buf.data() + pos, static_cast<size_t>(n));
    pos += static_cast<size_t>(n);
    return true;
  }
};

constexpr char kBinMagic[] = "GGTB3";  // v3 adds worker stats + profiling meta
constexpr char kBinMagicV2[] = "GGTB2";  // v2 added a dependence section
constexpr char kBinMagicV1[] = "GGTB1";

// Decodes a whole fixed-stride section (count already read and validated, so
// all `n` records are present) into `out`, partitioned across `threads`
// workers. Serial and parallel runs share this exact code path —
// par_for_blocks degenerates to one block — so the decoded records and the
// diagnostics are identical for every thread count by construction.
//
// Malformed-record semantics match the strict loader: in Strict/Lenient the
// first bad record is reported (at its byte offset) and the parse fails; in
// Salvage every bad record is reported in offset order and skipped, the
// survivors compacted in their original order.
template <class Rec>
bool decode_section(ByteReader& r, u64 n, int threads, bool salv,
                    std::vector<Rec>& out,
                    std::vector<LoadDiagnostic>& diags) {
  constexpr size_t stride = codec::kRecordBytes<codec::Ggtb3, Rec>;
  const size_t base = r.pos;
  const size_t count = static_cast<size_t>(n);
  r.pos = base + count * stride;
  out.resize(count);
  const size_t nblocks = static_cast<size_t>(std::max(threads, 1));
  // Per-block bad records: block b only touches bad[b], and each block's
  // list is ascending, so concatenation in block order is the ascending
  // list of all bad records.
  std::vector<std::vector<std::pair<size_t, codec::Fault>>> bad(nblocks);
  par_for_blocks(count, threads, [&](size_t b, size_t lo, size_t hi) {
    auto& mine = bad[b];
    const char* p = r.buf.data() + base + lo * stride;
    for (size_t i = lo; i < hi; ++i, p += stride) {
      const codec::Fault fault = codec::get<codec::Ggtb3>(p, out[i]);
      if (fault != codec::Fault::None) mine.emplace_back(i, fault);
    }
  });
  auto diagnose = [&](size_t i, codec::Fault fault) {
    diags.push_back(LoadDiagnostic{LoadErrorCode::MalformedRecord,
                                   base + i * stride, false,
                                   schema::Record<Rec>::section,
                                   codec::fault_message<Rec>(fault)});
  };
  size_t nbad = 0;
  for (const auto& b : bad) nbad += b.size();
  if (nbad == 0) return true;
  if (!salv) {
    for (const auto& b : bad) {
      if (!b.empty()) {
        diagnose(b.front().first, b.front().second);
        break;
      }
    }
    return false;
  }
  std::vector<size_t> bad_all;
  bad_all.reserve(nbad);
  for (const auto& b : bad) {
    for (const auto& [i, fault] : b) {
      bad_all.push_back(i);
      diagnose(i, fault);
    }
  }
  // Stable in-place compaction over the sorted bad list.
  size_t w = bad_all.front();
  size_t next = 0;
  for (size_t i = bad_all.front(); i < count; ++i) {
    if (next < bad_all.size() && bad_all[next] == i) {
      ++next;
      continue;
    }
    out[w++] = out[i];
  }
  out.resize(w);
  return true;
}

// Parses the sections after the magic. Returns false on a fatal problem
// (Strict/Lenient); in Salvage mode it always returns true and simply stops
// at the end of the longest readable prefix, leaving what was parsed in
// `trace`. Diagnostics are appended either way. The fixed-stride record
// sections decode across `threads` workers (see decode_section); the
// variable-size preamble (meta, notes, strings) stays serial.
bool parse_binary_body(ByteReader& r, bool v1, bool v2, bool salv, int threads,
                       Trace& trace, std::vector<LoadDiagnostic>& diags) {
  auto add = [&](LoadErrorCode code, u64 off, const char* ctx,
                 std::string msg) {
    diags.push_back(
        LoadDiagnostic{code, off, false, ctx, std::move(msg)});
  };
  auto truncated = [&](u64 off, const char* ctx, const char* msg) {
    add(LoadErrorCode::TruncatedStream, off, ctx, msg);
    return salv;  // salvage keeps the prefix; strict/lenient fail
  };
  // Reads a section count and sanity-checks it against the bytes that are
  // actually left.
  auto get_count = [&](u64& n, size_t min_size, const char* ctx, bool& ok) {
    const u64 off = r.pos;
    if (!r.get_u64(n)) {
      add(LoadErrorCode::TruncatedStream, off, ctx,
          std::string("truncated ") + ctx);
      ok = salv;
      return false;
    }
    if (n > r.remaining() / min_size) {
      add(LoadErrorCode::LimitExceeded, off, ctx,
          std::string("implausible ") + ctx + " count " + std::to_string(n));
      ok = salv;
      return false;
    }
    return true;
  };

  TraceMeta& m = trace.meta;
  u32 workers = 0, cores = 0;
  u64 ghz_u = 0, nnotes = 0;
  if (!(r.get_str(m.program) && r.get_str(m.runtime) &&
        r.get_str(m.topology) && r.get_u32(workers) && r.get_u32(cores) &&
        r.get_u64(ghz_u) && r.get_u64(m.region_start) &&
        r.get_u64(m.region_end))) {
    return truncated(r.pos, "meta", "truncated meta");
  }
  m.num_workers = static_cast<int>(workers);
  m.num_cores = static_cast<int>(cores);
  m.ghz = static_cast<double>(ghz_u) / 1e6;
  {
    bool ok = true;
    if (!get_count(nnotes, 8, "notes", ok)) return ok;
    for (u64 i = 0; i < nnotes; ++i) {
      std::string n;
      if (!r.get_str(n)) return truncated(r.pos, "notes", "truncated notes");
      m.notes.push_back(std::move(n));
    }
  }
  {
    u64 nstrs = 0;
    const u64 off = r.pos;
    if (!r.get_u64(nstrs))
      return truncated(off, "strings", "truncated string table");
    if (nstrs > 0 && nstrs - 1 > r.remaining() / 8) {
      add(LoadErrorCode::LimitExceeded, off, "strings",
          "implausible string count " + std::to_string(nstrs));
      return salv;
    }
    bool warned = false;
    for (u64 i = 1; i < nstrs; ++i) {
      std::string str;
      const u64 soff = r.pos;
      if (!r.get_str(str))
        return truncated(soff, "strings", "truncated string table");
      StrId got = trace.strings.intern(str);
      if (got != i) {
        if (!salv) {
          add(LoadErrorCode::StringTableCorrupt, soff, "strings",
              "string ids not dense");
          return false;
        }
        if (!warned) {
          add(LoadErrorCode::StringTableCorrupt, soff, "strings",
              "duplicate string contents; de-duplicated with placeholders");
          warned = true;
        }
        while (got != i) {
          str += "#";
          got = trace.strings.intern(str);
        }
      }
    }
  }
  // The record sections, in schema order. GGTB1 ends after the bookkeeps;
  // GGTB2 adds the depends; GGTB3 adds the profiling trailer and the worker
  // stats.
  bool more = true, result = true;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    if (!more) return;
    if constexpr (std::is_same_v<Rec, DependRec>) {
      if (v1) return;
    }
    if constexpr (std::is_same_v<Rec, WorkerStatsRec>) {
      if (v1 || v2) return;
      u32 profiled = 1;
      if (!(r.get_u32(profiled) && r.get_u64(m.trace_buffer_bytes) &&
            r.get_str(m.clock_source))) {
        more = false;
        result = truncated(r.pos, "trailer", "truncated profiling meta");
        return;
      }
      m.profiled = profiled != 0;
    }
    u64 n = 0;
    if (!get_count(n, codec::kRecordBytes<codec::Ggtb3, Rec>,
                   schema::Record<Rec>::section, result)) {
      more = false;
      return;
    }
    if (!decode_section(r, n, threads, salv, schema::Record<Rec>::of(trace),
                        diags)) {
      more = false;
      result = false;
    }
  });
  return result;
}

}  // namespace

LoadResult parse_trace_binary(std::string_view buf, const LoadOptions& opts) {
  LoadResult res;
  res.source = "<stream>";
  const bool salv = opts.mode == LoadMode::Salvage;
  if (buf.size() < 5) {
    res.diagnostics.push_back(LoadDiagnostic{LoadErrorCode::BadMagic, 0, false,
                                             "magic", "bad binary magic"});
    return res;
  }
  const std::string_view m5 = buf.substr(0, 5);
  const bool v1 = m5 == kBinMagicV1;
  const bool v2 = m5 == kBinMagicV2;
  if (!v1 && !v2 && m5 != kBinMagic) {
    res.diagnostics.push_back(LoadDiagnostic{LoadErrorCode::BadMagic, 0, false,
                                             "magic", "bad binary magic"});
    return res;
  }
  ByteReader r{buf, 5};
  Trace trace;
  const int threads = resolve_threads(opts.threads);
  if (!parse_binary_body(r, v1, v2, salv, threads, trace, res.diagnostics)) {
    return res;  // fatal in Strict/Lenient; diagnostics already recorded
  }
  finish_load(std::move(trace), opts, res);
  return res;
}

bool read_file_contents(const std::string& path, std::string& out) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return false;
  out.clear();
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));
  }
  // EINTR-safe read loop — unlike the old fread-once version this survives
  // signal interruption and short reads, and works on non-seekable sources
  // (pipes), reading to true EOF.
  const bool ok = read_fd_contents(fd, out);
  ::close(fd);
  if (!ok) out.clear();
  return ok;
}

std::string slurp_stream(std::istream& is) {
  std::string buf;
  char block[1 << 16];
  for (;;) {
    is.read(block, sizeof block);
    const std::streamsize got = is.gcount();
    if (got > 0) buf.append(block, static_cast<size_t>(got));
    if (got < static_cast<std::streamsize>(sizeof block)) break;
  }
  return buf;
}

}  // namespace gg
