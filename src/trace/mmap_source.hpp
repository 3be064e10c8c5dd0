// Zero-copy file ingestion for the GGTB binary, ggtrace text and GGSPOOL1
// formats.
//
// MmapSource maps a regular file read-only and hands the parser a
// string_view over the mapping — no heap copy of a multi-GB trace, and the
// kernel prefetches sequentially (madvise) while the fixed-stride section
// decoders walk it. Non-regular files (pipes, /proc, sockets) cannot be
// mapped, so open() transparently falls back to an EINTR-safe read() loop
// (read_fd_contents); callers never need to care which path fed them. Byte
// offsets in diagnostics are file offsets either way.
//
// Edge cases handled explicitly (tests/mmap_ingest_test.cpp):
//   * zero-length files: mmap(len=0) is EINVAL, so an empty view is returned
//     without mapping — loaders then report EmptyInput exactly as the stream
//     path does;
//   * files whose size is an exact page multiple (no zero-fill tail): the
//     view length comes from fstat, never from page rounding, so a trace
//     truncated at a page boundary reports the same TruncatedStream offset
//     as a parse of the file read into a buffer;
//   * files that shrink between fstat and the parse would normally SIGBUS on
//     the vanished tail; loads are point-in-time reads of sealed files, so
//     this is out of contract (the live-tailing path in src/serve/ uses
//     pread for exactly this reason).
#pragma once

#include <string>
#include <string_view>

namespace gg {

class MmapSource {
 public:
  MmapSource() = default;
  ~MmapSource() { reset(); }
  MmapSource(MmapSource&& other) noexcept { swap(other); }
  MmapSource& operator=(MmapSource&& other) noexcept {
    reset();
    swap(other);
    return *this;
  }
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  /// Maps (or, for non-regular files, reads) `path`. Returns false when the
  /// file cannot be opened or read; the source is then empty. A zero-length
  /// regular file opens successfully with an empty view.
  bool open(const std::string& path);

  /// The file's bytes. Valid until reset()/destruction/reassignment.
  std::string_view view() const { return view_; }

  /// True when view() is backed by an actual mapping (vs the read fallback).
  bool mapped() const { return map_base_ != nullptr; }

  void reset();

 private:
  void swap(MmapSource& other) noexcept;

  std::string_view view_;
  void* map_base_ = nullptr;  ///< non-null only when mmap succeeded
  size_t map_len_ = 0;
  std::string fallback_;  ///< owns the bytes on the read() path
};

/// EINTR-safe whole-file read through an already-open descriptor; appends to
/// `out`. Handles short reads and non-seekable sources (pipes). Returns false
/// on a read error (out may hold a partial prefix).
bool read_fd_contents(int fd, std::string& out);

}  // namespace gg
