// mmap ingestion equivalence suite: file-path loads through the zero-copy
// mmap source must be indistinguishable from parsing the same bytes read
// into a buffer (read_file_contents + parse_trace_*) — identical status,
// identical diagnostics (codes, offsets, contexts, messages), identical
// salvaged traces — in every load mode, on pristine inputs, on a
// damaged-file sweep, and on the edge cases where mapping genuinely differs
// from reading (zero-length files, page-boundary truncation, non-regular
// files that force the read() fallback).
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "trace/fast_parse.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"

namespace gg {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "mmap_ingest_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Every observable fact of one load as a single byte string: status, each
/// diagnostic field, the salvage summary, and (when usable) the full trace
/// re-serialized. Two loads are equivalent iff their fingerprints match.
std::string fingerprint(const LoadResult& lr) {
  std::ostringstream os;
  os << to_string(lr.status) << '\n';
  for (const LoadDiagnostic& d : lr.diagnostics) {
    os << static_cast<int>(d.code) << '|' << d.offset << '|'
       << d.offset_is_line << '|' << d.context << '|' << d.message << '\n';
  }
  os << lr.salvage.summary() << '\n';
  if (lr.usable()) save_trace_binary(*lr.trace, os);
  return os.str();
}

LoadOptions options(LoadMode mode, int threads) {
  LoadOptions opts;
  opts.mode = mode;
  opts.threads = threads;
  return opts;
}

/// A file-path load: mmap for regular files, read() for the rest.
LoadResult load_file(const std::string& path, LoadMode mode, int threads = 1) {
  return load_trace_file_ex(path, options(mode, threads));
}

/// The reference: the file's bytes read into a buffer, then parsed.
LoadResult parse_buffered(const std::string& path, LoadMode mode,
                          int threads = 1) {
  std::string bytes;
  EXPECT_TRUE(read_file_contents(path, bytes)) << path;
  const bool binary = path.size() >= 6 &&
                      path.compare(path.size() - 6, 6, ".ggbin") == 0;
  return binary ? parse_trace_binary(bytes, options(mode, threads))
                : parse_trace_text(bytes, options(mode, threads));
}

/// The core check: write `bytes` to a file and require the file-path load
/// and the buffered parse to agree byte-for-byte in all three load modes.
void expect_io_equivalence(const std::string& path, const std::string& bytes) {
  write_file(path, bytes);
  for (const LoadMode mode :
       {LoadMode::Strict, LoadMode::Lenient, LoadMode::Salvage}) {
    const LoadResult m = load_file(path, mode);
    const LoadResult s = parse_buffered(path, mode);
    ASSERT_EQ(fingerprint(m), fingerprint(s))
        << "mmap and buffered loads disagree, mode " << static_cast<int>(mode)
        << ", " << bytes.size() << " bytes, " << path;
  }
}

Trace small_trace() {
  SynthOptions sopts;
  sopts.seed = 7;
  sopts.grains = 60;
  sopts.workers = 4;
  sopts.loop_fraction = 0.5;
  return synth_trace(sopts);
}

std::string text_bytes(const Trace& t) {
  std::ostringstream os;
  save_trace(t, os);
  return os.str();
}

std::string binary_bytes(const Trace& t) {
  std::ostringstream os;
  save_trace_binary(t, os);
  return os.str();
}

TEST(MmapIngestTest, PristineFilesAgreeAndLoadOk) {
  const Trace t = small_trace();
  const std::string text = temp_path("clean.ggtrace");
  const std::string bin = temp_path("clean.ggbin");
  expect_io_equivalence(text, text_bytes(t));
  expect_io_equivalence(bin, binary_bytes(t));
  EXPECT_EQ(load_file(text, LoadMode::Strict).status, LoadStatus::Ok);
  EXPECT_EQ(load_file(bin, LoadMode::Strict).status, LoadStatus::Ok);
}

TEST(MmapIngestTest, ZeroLengthFilesFailIdentically) {
  for (const char* name : {"empty.ggtrace", "empty.ggbin"}) {
    const std::string path = temp_path(name);
    expect_io_equivalence(path, std::string());
    const LoadResult lr = load_file(path, LoadMode::Salvage);
    EXPECT_EQ(lr.status, LoadStatus::Failed) << path;
    ASSERT_NE(lr.first_error(), nullptr) << path;
    // Text reports the missing header, binary the missing magic.
    EXPECT_TRUE(lr.first_error()->code == LoadErrorCode::EmptyInput ||
                lr.first_error()->code == LoadErrorCode::BadMagic)
        << path;
  }
}

TEST(MmapIngestTest, NonexistentFilesFailIdentically) {
  const std::string path = temp_path("does_not_exist.ggbin");
  ::unlink(path.c_str());
  std::string unused;
  EXPECT_FALSE(read_file_contents(path, unused));
  for (const LoadMode mode :
       {LoadMode::Strict, LoadMode::Lenient, LoadMode::Salvage}) {
    const LoadResult m = load_file(path, mode);
    EXPECT_EQ(m.status, LoadStatus::Failed);
    EXPECT_FALSE(m.trace.has_value());
    ASSERT_EQ(m.diagnostics.size(), 1u);
    EXPECT_EQ(m.first_error()->code, LoadErrorCode::CannotOpen);
    EXPECT_EQ(m.first_error()->message, "cannot open " + path);
  }
}

TEST(MmapIngestTest, PageBoundaryTruncationAgrees) {
  // A binary trace spanning several pages, truncated exactly at, one byte
  // short of, and one byte past each page boundary. The mmap view length
  // comes from fstat, not page rounding: the parser must see the same
  // truncated stream the read() path delivers, never mapped zero-fill.
  SynthOptions sopts;
  sopts.seed = 11;
  sopts.grains = 2000;
  sopts.workers = 4;
  const std::string bytes = binary_bytes(synth_trace(sopts));
  const long page = ::sysconf(_SC_PAGESIZE);
  ASSERT_GT(page, 0);
  ASSERT_GT(bytes.size(), static_cast<size_t>(2 * page));
  const std::string path = temp_path("page.ggbin");
  for (size_t boundary = static_cast<size_t>(page); boundary < bytes.size();
       boundary += static_cast<size_t>(page)) {
    for (const size_t keep : {boundary - 1, boundary, boundary + 1}) {
      expect_io_equivalence(path, fault::truncate_stream(bytes, keep));
    }
  }
}

TEST(MmapIngestTest, DamagedFileSweepAgrees) {
  // Truncations and bit flips over both serialization formats; stride keeps
  // the sweep fast while still landing inside every section.
  const Trace t = small_trace();
  const std::string text = text_bytes(t);
  const std::string bin = binary_bytes(t);
  const std::string text_path = temp_path("sweep.ggtrace");
  const std::string bin_path = temp_path("sweep.ggbin");
  for (size_t keep = 0; keep <= text.size(); keep += 31) {
    expect_io_equivalence(text_path, fault::truncate_stream(text, keep));
  }
  for (size_t keep = 0; keep <= bin.size(); keep += 31) {
    expect_io_equivalence(bin_path, fault::truncate_stream(bin, keep));
  }
  for (size_t i = 0; i < text.size(); i += 53) {
    expect_io_equivalence(
        text_path, fault::flip_bit(text, i, static_cast<int>((i * 7) % 8)));
  }
  for (size_t i = 0; i < bin.size(); i += 53) {
    expect_io_equivalence(
        bin_path, fault::flip_bit(bin, i, static_cast<int>((i * 7) % 8)));
  }
}

TEST(MmapIngestTest, CorruptedSectionsDecodeIdenticallyAcrossThreadCounts) {
  // Sections large enough for the parallel fixed-stride decoder to actually
  // shard (>= kParForMinItems records), with damage planted mid-section:
  // the diagnostics (first bad record in Strict/Lenient, every bad record
  // in Salvage) must not depend on the decode thread count or io path.
  SynthOptions sopts;
  sopts.seed = 23;
  sopts.grains = 20000;
  sopts.workers = 8;
  sopts.loop_fraction = 0.4;
  const std::string bytes = binary_bytes(synth_trace(sopts));
  const std::string path = temp_path("threads.ggbin");
  for (const size_t at :
       {bytes.size() / 5, bytes.size() / 2, (bytes.size() * 4) / 5}) {
    const std::string damaged =
        fault::flip_bit(bytes, at, static_cast<int>(at % 8));
    write_file(path, damaged);
    for (const LoadMode mode :
         {LoadMode::Strict, LoadMode::Lenient, LoadMode::Salvage}) {
      const std::string serial =
          fingerprint(load_file(path, mode, /*threads=*/1));
      for (const int threads : {2, 4, 8}) {
        EXPECT_EQ(serial, fingerprint(load_file(path, mode, threads)))
            << "threads " << threads << ", mode " << static_cast<int>(mode);
      }
      EXPECT_EQ(serial, fingerprint(parse_buffered(path, mode, 8)));
    }
  }
}

TEST(MmapIngestTest, FifoFallsBackToShortReadLoop) {
  // A FIFO is not mappable: the mmap source must quietly fall back to the
  // EINTR-safe read() loop. The writer dribbles the trace in small odd-sized
  // chunks so the reader sees genuinely short reads.
  const Trace t = small_trace();
  const std::string bytes = binary_bytes(t);
  const std::string path = temp_path("pipe.ggbin");
  ::unlink(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << strerror(errno);
  std::thread writer([&] {
    std::ofstream os(path, std::ios::binary);
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t n = std::min<size_t>(613, bytes.size() - pos);
      os.write(bytes.data() + pos, static_cast<std::streamsize>(n));
      os.flush();
      pos += n;
    }
  });
  const LoadResult lr = load_file(path, LoadMode::Strict);
  writer.join();
  ::unlink(path.c_str());
  ASSERT_TRUE(lr.usable()) << lr.describe();
  EXPECT_EQ(lr.status, LoadStatus::Ok);
  EXPECT_EQ(binary_bytes(*lr.trace), binary_bytes(t));
}

// --- spool recovery: the file path mmaps too ------------------------------

std::string spool_fingerprint(const spool::RecoverResult& rr) {
  std::ostringstream os;
  os << rr.usable << '\n' << rr.report.summary() << '\n';
  if (rr.usable) save_trace_binary(rr.trace, os);
  return os.str();
}

TEST(MmapIngestTest, SpoolFileRecoveryMatchesInMemoryRecovery) {
  const std::string bytes =
      spool::spool_trace_bytes(small_trace(), /*epoch_bytes=*/128);
  const std::string path = temp_path("spool.ggspool");
  for (size_t keep = 0; keep <= bytes.size(); keep += 37) {
    const std::string cut = fault::truncate_stream(bytes, keep);
    write_file(path, cut);
    std::string err;
    const spool::RecoverResult from_file =
        spool::recover_spool_file(path, &err);
    const spool::RecoverResult from_bytes = spool::recover_spool_bytes(cut);
    EXPECT_EQ(spool_fingerprint(from_file), spool_fingerprint(from_bytes))
        << "cut at " << keep;
  }
  for (size_t i = 0; i < bytes.size(); i += 41) {
    const std::string rotted =
        fault::flip_bit(bytes, i, static_cast<int>((i * 5) % 8));
    write_file(path, rotted);
    std::string err;
    const spool::RecoverResult from_file =
        spool::recover_spool_file(path, &err);
    const spool::RecoverResult from_bytes = spool::recover_spool_bytes(rotted);
    EXPECT_EQ(spool_fingerprint(from_file), spool_fingerprint(from_bytes))
        << "flip at " << i;
  }
}

}  // namespace
}  // namespace gg
