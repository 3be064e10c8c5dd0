// Golden-trace regression corpus (tests/golden/): committed traces in both
// serialization formats and as a GGSPOOL1 spool, plus a committed .expect
// summary. Asserts the whole ingestion pipeline — load -> graph -> metrics
// -> exports — is byte-stable across formats and across time: any change to
// a trace format, the graph builder, the integer metrics or the bytes of an
// export (DOT, GraphML, CSV, JSON) shows up as a diff against the committed
// files. Regenerate with `make_golden tests/golden`
// and commit the result together with the change that caused it.
#include <array>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/signature.hpp"
#include "golden_summary.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/validate.hpp"

#ifndef GG_GOLDEN_DIR
#error "GG_GOLDEN_DIR must point at the committed corpus"
#endif

namespace gg {
namespace {

/// Strict and unvalidated: each test validates where it means to.
constexpr LoadOptions kStrictRaw{LoadMode::Strict, false};

const char* const kEntries[] = {"tasks_mir4", "loops_gcc2", "exact_zero1"};

/// Epoch size the committed .ggspool files were spooled with. Must stay in
/// sync with make_golden.cpp.
constexpr u64 kGoldenEpochBytes = 256;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class GoldenTraceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTraceTest, BothFormatsLoadToTheSameValidTrace) {
  const std::string base = std::string(GG_GOLDEN_DIR) + "/" + GetParam();
  const LoadResult text_lr =
      load_trace_file_ex(base + ".ggtrace", kStrictRaw);
  const LoadResult binary_lr = load_trace_file_ex(base + ".ggbin", kStrictRaw);
  ASSERT_TRUE(text_lr.ok());
  ASSERT_TRUE(binary_lr.ok());
  const Trace& text = *text_lr.trace;
  const Trace& binary = *binary_lr.trace;
  EXPECT_TRUE(validate_trace(text).empty());
  EXPECT_TRUE(validate_trace(binary).empty());
  EXPECT_EQ(check::canonical_signature(text),
            check::canonical_signature(binary));
  EXPECT_EQ(text.makespan(), binary.makespan());
  EXPECT_EQ(text.meta.clock_source, binary.meta.clock_source);
  EXPECT_EQ(text.worker_stats.size(), binary.worker_stats.size());
}

TEST_P(GoldenTraceTest, PipelineMatchesCommittedExpectation) {
  const std::string base = std::string(GG_GOLDEN_DIR) + "/" + GetParam();
  const std::string expected = read_file(base + ".expect");
  for (const char* ext : {".ggtrace", ".ggbin"}) {
    const LoadResult lr = load_trace_file_ex(base + ext, kStrictRaw);
    ASSERT_TRUE(lr.ok()) << ext;
    EXPECT_EQ(golden::summary(*lr.trace) + "\n", expected)
        << ext << ": load -> graph -> metrics drifted from the committed "
        << "expectation; if the change is intentional, regenerate with "
        << "make_golden";
  }
}

TEST_P(GoldenTraceTest, SerializationRoundTripsByteExactly) {
  const std::string base = std::string(GG_GOLDEN_DIR) + "/" + GetParam();
  {
    const LoadResult lr = load_trace_file_ex(base + ".ggtrace", kStrictRaw);
    ASSERT_TRUE(lr.ok());
    std::ostringstream os;
    save_trace(*lr.trace, os);
    EXPECT_EQ(os.str(), read_file(base + ".ggtrace")) << "text format";
  }
  {
    const LoadResult lr = load_trace_file_ex(base + ".ggbin", kStrictRaw);
    ASSERT_TRUE(lr.ok());
    std::ostringstream os(std::ios::binary);
    save_trace_binary(*lr.trace, os);
    EXPECT_EQ(os.str(), read_file(base + ".ggbin")) << "binary format";
  }
}

TEST_P(GoldenTraceTest, SpoolRoundTripsByteExactly) {
  const std::string base = std::string(GG_GOLDEN_DIR) + "/" + GetParam();
  const LoadResult lr = load_trace_file_ex(base + ".ggtrace", kStrictRaw);
  ASSERT_TRUE(lr.ok());
  EXPECT_EQ(spool::spool_trace_bytes(*lr.trace, kGoldenEpochBytes),
            read_file(base + ".ggspool"))
      << "spool format";
}

TEST_P(GoldenTraceTest, RecoveredSpoolMatchesCommittedExpectation) {
  const std::string base = std::string(GG_GOLDEN_DIR) + "/" + GetParam();
  const spool::RecoverResult rr =
      spool::recover_spool_file(base + ".ggspool");
  ASSERT_TRUE(rr.usable) << rr.report.summary();
  ASSERT_TRUE(rr.report.clean_footer) << rr.report.summary();
  ASSERT_EQ(rr.report.frames_corrupt, 0u) << rr.report.summary();
  // Every worker's records span several epoch frames, so the per-worker
  // epoch sequencing is part of what the committed bytes pin.
  for (const u64 epochs : rr.report.epochs_per_worker) EXPECT_GE(epochs, 2u);
  EXPECT_EQ(golden::summary(rr.trace) + "\n", read_file(base + ".expect"));
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTraceTest,
                         ::testing::ValuesIn(kEntries));

// Appends one default record of kind `k` (order: task, fragment, join,
// loop, chunk, bookkeep, depend, wstat) to a Trace or a spool RecordBuffer.
template <class Records>
void add_record(Records& r, size_t k) {
  switch (k) {
    case 0: r.tasks.emplace_back(); break;
    case 1: r.fragments.emplace_back(); break;
    case 2: r.joins.emplace_back(); break;
    case 3: r.loops.emplace_back(); break;
    case 4: r.chunks.emplace_back(); break;
    case 5: r.bookkeeps.emplace_back(); break;
    case 6: r.depends.emplace_back(); break;
    default: r.worker_stats.emplace_back(); break;
  }
}

// Both binary encodings store every record at a fixed size. The sizes are
// part of the on-disk formats: a change here breaks every file written
// before it.
TEST(RecordSizeTest, BinaryRecordSizesArePinned) {
  constexpr std::array<size_t, 8> kGgtb3 = {48, 76, 32, 76, 84, 40, 16, 100};
  constexpr std::array<size_t, 8> kSpool = {43, 71, 30, 69, 80, 33, 16, 98};
  auto ggbin_size = [](const Trace& t) {
    std::ostringstream os(std::ios::binary);
    save_trace_binary(t, os);
    return os.str().size();
  };
  const size_t ggbin_empty = ggbin_size(Trace{});
  const size_t spool_empty =
      spool::encode_epoch_payload(spool::RecordBuffer{}).size();
  for (size_t k = 0; k < 8; ++k) {
    Trace t;
    add_record(t, k);
    EXPECT_EQ(ggbin_size(t) - ggbin_empty, kGgtb3[k]) << "GGTB3 kind " << k;
    spool::RecordBuffer buf;
    add_record(buf, k);
    EXPECT_EQ(spool::encode_epoch_payload(buf).size() - spool_empty,
              kSpool[k])
        << "GGSPOOL1 kind " << k;
  }
}

}  // namespace
}  // namespace gg
