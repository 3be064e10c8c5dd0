// Corrupted-trace corpus: systematically damage serialized traces (truncate
// at every record boundary and every byte, flip a bit at every byte) and
// assert the hardened loaders never crash, never hang, and always land in
// one of three states: loaded clean, salvaged (then structurally valid), or
// failed with diagnostics. This is the regression corpus the ASan/UBSan CI
// job runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>

#include "analysis/report.hpp"
#include "fault/fault.hpp"
#include "serve/tailer.hpp"
#include "trace/recorder.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/incremental.hpp"
#include "trace/spool.hpp"
#include "trace/synth.hpp"
#include "trace/validate.hpp"

namespace gg {
namespace {

// Small but fully-featured trace: tasks, fragments, joins, a loop with
// chunks and bookkeeping, dependences, worker stats, and a string table.
Trace make_corpus_trace() {
  TraceRecorder rec(2);
  auto w0 = rec.writer(0);
  auto w1 = rec.writer(1);

  const StrId src_root = rec.intern("<root>");
  const StrId src_task = rec.intern_source("corpus.c", 10, "work");
  const StrId src_loop = rec.intern_source("corpus.c", 50, "loop");

  TaskRec root;
  root.uid = kRootTask;
  root.parent = kNoTask;
  root.src = src_root;
  w0.task(root);

  auto frag = [&](TaskId task, u32 seq, TimeNs s, TimeNs e, FragmentEnd r,
                  u64 ref) {
    FragmentRec f;
    f.task = task;
    f.seq = seq;
    f.start = s;
    f.end = e;
    f.end_reason = r;
    f.end_ref = ref;
    f.counters.compute = e - s;
    return f;
  };
  w0.fragment(frag(kRootTask, 0, 0, 10, FragmentEnd::Fork, 1));
  w0.fragment(frag(kRootTask, 1, 12, 20, FragmentEnd::Fork, 2));
  w0.fragment(frag(kRootTask, 2, 22, 30, FragmentEnd::Join, 0));
  w0.fragment(frag(kRootTask, 3, 40, 41, FragmentEnd::Loop, 1));
  w0.fragment(frag(kRootTask, 4, 100, 101, FragmentEnd::TaskEnd, 0));

  TaskRec t1;
  t1.uid = 1;
  t1.parent = kRootTask;
  t1.child_index = 0;
  t1.src = src_task;
  t1.create_time = 10;
  w0.task(t1);
  TaskRec t2 = t1;
  t2.uid = 2;
  t2.child_index = 1;
  t2.create_time = 20;
  w0.task(t2);

  w1.fragment(frag(1, 0, 11, 25, FragmentEnd::TaskEnd, 0));
  w0.fragment(frag(2, 0, 21, 28, FragmentEnd::TaskEnd, 0));

  JoinRec j;
  j.task = kRootTask;
  j.seq = 0;
  j.start = 30;
  j.end = 39;
  w0.join(j);

  LoopRec loop;
  loop.uid = 1;
  loop.enclosing_task = kRootTask;
  loop.src = src_loop;
  loop.sched = ScheduleKind::Static;
  loop.iter_begin = 0;
  loop.iter_end = 8;
  loop.num_threads = 2;
  loop.start = 41;
  loop.end = 99;
  w0.loop(loop);

  auto chunk = [&](u16 thread, u32 seq, u64 lo, u64 hi, TimeNs s, TimeNs e) {
    ChunkRec c;
    c.loop = 1;
    c.thread = thread;
    c.core = thread;
    c.seq_on_thread = seq;
    c.iter_begin = lo;
    c.iter_end = hi;
    c.start = s;
    c.end = e;
    return c;
  };
  w0.chunk(chunk(0, 0, 0, 4, 43, 60));
  w1.chunk(chunk(1, 0, 4, 8, 44, 70));
  BookkeepRec b;
  b.loop = 1;
  b.thread = 0;
  b.seq_on_thread = 0;
  b.start = 42;
  b.end = 43;
  b.got_chunk = true;
  w0.bookkeep(b);

  DependRec d;
  d.pred = 1;
  d.succ = 2;
  w0.depend(d);

  WorkerStatsRec s0;
  s0.worker = 0;
  s0.tasks_spawned = 2;
  s0.tasks_executed = 2;
  w0.stats(s0);
  WorkerStatsRec s1 = s0;
  s1.worker = 1;
  w1.stats(s1);

  TraceMeta meta;
  meta.program = "corpus";
  meta.runtime = "handmade";
  meta.topology = "generic4";
  meta.num_workers = 2;
  meta.num_cores = 2;
  meta.region_start = 0;
  meta.region_end = 101;
  return rec.finish(meta);
}

std::string text_bytes() {
  std::ostringstream os;
  save_trace(make_corpus_trace(), os);
  return os.str();
}

std::string binary_bytes() {
  std::ostringstream os;
  save_trace_binary(make_corpus_trace(), os);
  return os.str();
}

// The corpus invariant: whatever the damage, a load lands in exactly one of
// {Ok, Salvaged, Failed}; anything usable is structurally valid; Strict
// never reports Salvaged.
void check_invariants(const std::string& bytes, bool binary) {
  for (const LoadMode mode :
       {LoadMode::Strict, LoadMode::Lenient, LoadMode::Salvage}) {
    std::istringstream is(bytes);
    const LoadOptions opts{mode, true};
    const LoadResult lr =
        binary ? load_trace_binary_ex(is, opts) : load_trace_ex(is, opts);
    ASSERT_TRUE(lr.status == LoadStatus::Ok ||
                lr.status == LoadStatus::Salvaged ||
                lr.status == LoadStatus::Failed);
    if (mode != LoadMode::Salvage) {
      EXPECT_NE(lr.status, LoadStatus::Salvaged);
    }
    if (lr.status == LoadStatus::Failed) {
      EXPECT_NE(lr.first_error(), nullptr) << "failure without diagnostics";
    }
    if (lr.usable()) {
      EXPECT_TRUE(lr.trace->finalized());
      EXPECT_TRUE(validate_trace(*lr.trace).empty())
          << "usable trace failed validation: " << lr.describe();
    }
  }
}

TEST(CorruptCorpusTest, PristineInputsLoadOk) {
  {
    std::istringstream is(text_bytes());
    const LoadResult lr = load_trace_ex(is, LoadOptions{LoadMode::Salvage, true});
    EXPECT_EQ(lr.status, LoadStatus::Ok) << lr.describe();
  }
  {
    std::istringstream is(binary_bytes());
    const LoadResult lr =
        load_trace_binary_ex(is, LoadOptions{LoadMode::Salvage, true});
    EXPECT_EQ(lr.status, LoadStatus::Ok) << lr.describe();
  }
}

TEST(CorruptCorpusTest, TextTruncatedAtEveryLineBoundary) {
  const std::string text = text_bytes();
  for (size_t pos = 0; pos < text.size(); ++pos) {
    if (text[pos] != '\n') continue;
    const std::string cut = fault::truncate_stream(text, pos + 1);
    check_invariants(cut, /*binary=*/false);
    // Any cut that keeps the header must be salvageable: the valid prefix of
    // records is real data.
    std::istringstream is(cut);
    const LoadResult lr =
        load_trace_ex(is, LoadOptions{LoadMode::Salvage, true});
    EXPECT_TRUE(lr.usable()) << "line-boundary cut at byte " << pos
                             << " unsalvageable: " << lr.describe();
  }
}

TEST(CorruptCorpusTest, TextTruncatedAtEveryByte) {
  const std::string text = text_bytes();
  const size_t header_len = text.find('\n') + 1;
  for (size_t keep = 0; keep <= text.size(); ++keep) {
    const std::string cut = fault::truncate_stream(text, keep);
    check_invariants(cut, /*binary=*/false);
    if (keep >= header_len) {
      std::istringstream is(cut);
      const LoadResult lr =
          load_trace_ex(is, LoadOptions{LoadMode::Salvage, true});
      EXPECT_TRUE(lr.usable()) << "cut at byte " << keep
                               << " unsalvageable: " << lr.describe();
    }
  }
}

TEST(CorruptCorpusTest, BinaryTruncatedAtEveryByte) {
  const std::string bin = binary_bytes();
  for (size_t keep = 0; keep <= bin.size(); ++keep) {
    const std::string cut = fault::truncate_stream(bin, keep);
    check_invariants(cut, /*binary=*/true);
    if (keep >= 5) {  // magic intact: the readable prefix must salvage
      std::istringstream is(cut);
      const LoadResult lr =
          load_trace_binary_ex(is, LoadOptions{LoadMode::Salvage, true});
      EXPECT_TRUE(lr.usable()) << "cut at byte " << keep
                               << " unsalvageable: " << lr.describe();
    }
  }
}

TEST(CorruptCorpusTest, TextBitFlipAtEveryByte) {
  const std::string text = text_bytes();
  for (size_t i = 0; i < text.size(); ++i) {
    check_invariants(fault::flip_bit(text, i, static_cast<int>((i * 7) % 8)),
                     /*binary=*/false);
  }
}

TEST(CorruptCorpusTest, BinaryBitFlipAtEveryByte) {
  const std::string bin = binary_bytes();
  for (size_t i = 0; i < bin.size(); ++i) {
    check_invariants(fault::flip_bit(bin, i, static_cast<int>((i * 7) % 8)),
                     /*binary=*/true);
  }
}

TEST(CorruptCorpusTest, ShuffledRecordOrderLoadsOk) {
  const std::string text = text_bytes();
  for (u64 seed = 1; seed <= 8; ++seed) {
    std::istringstream is(fault::shuffle_lines(text, seed));
    const LoadResult lr =
        load_trace_ex(is, LoadOptions{LoadMode::Strict, true});
    EXPECT_EQ(lr.status, LoadStatus::Ok) << "seed " << seed << ": "
                                         << lr.describe();
  }
}

TEST(CorruptCorpusTest, EmptyAndGarbageInputsFailCleanly) {
  for (const std::string& bytes :
       {std::string(), std::string("garbage\n"), std::string("ggtrace 99\n"),
        std::string("GGTB9everything-else"), std::string(1000, '\0')}) {
    check_invariants(bytes, /*binary=*/false);
    check_invariants(bytes, /*binary=*/true);
  }
}

// --- spool corpus: frame-level damage on .ggspool streams -------------------
//
// Same philosophy as the stream corpus above, aimed at the crash-spool
// format: truncate at every frame boundary and every byte, tear every
// frame mid-write, rot every frame's payload. Recovery must terminate,
// keep every intact frame before the damage, and anything usable must be
// structurally valid after the prescribed salvage pass.

std::string spool_bytes() {
  // Tiny epochs so the corpus trace spreads over many 'E' frames.
  return spool::spool_trace_bytes(make_corpus_trace(), /*epoch_bytes=*/128);
}

void check_spool_invariants(const std::string& bytes) {
  spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  if (!rr.usable) return;  // nothing recoverable is a legal outcome
  if (rr.report.degraded()) salvage_trace(rr.trace);
  EXPECT_TRUE(validate_trace(rr.trace).empty())
      << "usable recovery failed validation: " << rr.report.summary();
}

TEST(SpoolCorpusTest, PristineSpoolRoundTrips) {
  const Trace original = make_corpus_trace();
  const spool::RecoverResult rr = spool::recover_spool_bytes(spool_bytes());
  ASSERT_TRUE(rr.usable) << rr.report.summary();
  EXPECT_TRUE(rr.report.clean_footer);
  EXPECT_FALSE(rr.report.partial());
  EXPECT_EQ(rr.report.frames_corrupt, 0u);
  EXPECT_EQ(rr.trace.tasks.size(), original.tasks.size());
  EXPECT_EQ(rr.trace.fragments.size(), original.fragments.size());
  EXPECT_EQ(rr.trace.chunks.size(), original.chunks.size());
  EXPECT_EQ(rr.trace.depends.size(), original.depends.size());
  EXPECT_TRUE(validate_trace(rr.trace).empty());
}

TEST(SpoolCorpusTest, TruncatedAtEveryFrameBoundary) {
  const std::string bytes = spool_bytes();
  const auto frames = spool::scan_frames(bytes);
  ASSERT_GT(frames.size(), 3u);  // meta, strings, epochs..., footer
  for (size_t keep = 0; keep <= frames.size(); ++keep) {
    const std::string cut = fault::truncate_spool_at_frame(bytes, keep);
    check_spool_invariants(cut);
    const spool::RecoverResult rr = spool::recover_spool_bytes(cut);
    if (keep == frames.size()) {
      EXPECT_TRUE(rr.report.clean_footer);
    } else {
      // Losing the footer (or more) must read as a partial recovery, and
      // every frame before the cut must survive.
      EXPECT_FALSE(rr.report.clean_footer) << "cut at frame " << keep;
      EXPECT_EQ(rr.report.frames_total, keep);
    }
  }
}

TEST(SpoolCorpusTest, TruncatedAtEveryByte) {
  const std::string bytes = spool_bytes();
  for (size_t keep = 0; keep <= bytes.size(); ++keep) {
    check_spool_invariants(fault::truncate_stream(bytes, keep));
  }
}

TEST(SpoolCorpusTest, BitFlipAtEveryByte) {
  const std::string bytes = spool_bytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    check_spool_invariants(
        fault::flip_bit(bytes, i, static_cast<int>((i * 5) % 8)));
  }
}

TEST(SpoolCorpusTest, TornFrameAtEveryFrame) {
  const std::string bytes = spool_bytes();
  const auto frames = spool::scan_frames(bytes);
  for (size_t i = 0; i < frames.size(); ++i) {
    for (const size_t keep_payload : {size_t{0}, size_t{3}}) {
      const std::string torn =
          fault::tear_spool_frame(bytes, i, keep_payload);
      check_spool_invariants(torn);
      const spool::RecoverResult rr = spool::recover_spool_bytes(torn);
      // The torn frame's header is intact (the tear lands in its payload),
      // so it is counted but never applied, and the tail reads as torn.
      EXPECT_EQ(rr.report.frames_total, i + 1) << "torn frame " << i;
      EXPECT_LE(rr.report.frames_kept, i) << "torn frame " << i;
      EXPECT_TRUE(rr.report.torn_tail) << "torn frame " << i;
      EXPECT_FALSE(rr.report.clean_footer);
    }
  }
}

TEST(SpoolCorpusTest, ChecksumRotSkipsTheRottedFrame) {
  const std::string bytes = spool_bytes();
  const auto frames = spool::scan_frames(bytes);
  for (size_t i = 0; i < frames.size(); ++i) {
    const std::string rotted =
        fault::flip_spool_frame_checksum(bytes, i, /*seed=*/i + 1);
    check_spool_invariants(rotted);
    const spool::RecoverResult rr = spool::recover_spool_bytes(rotted);
    EXPECT_GE(rr.report.frames_corrupt, 1u) << "frame " << i;
    // Every frame still parses (lengths untouched), so the scan reaches
    // the end of the stream.
    EXPECT_EQ(rr.report.frames_total, frames.size());
    EXPECT_FALSE(rr.report.torn_tail);
  }
}

TEST(SpoolCorpusTest, DroppedEpochFrameIsDegraded) {
  // An epoch frame cut out of an otherwise clean spool: the footer is
  // intact and no frame is corrupt, but the worker's next epoch jumps its
  // seq. The recovery must read as degraded, so every tool salvages it.
  const std::string bytes = spool_bytes();
  const auto frames = spool::scan_frames(bytes);
  size_t dropped = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].type != spool::FrameType::Epoch) continue;
    bool later_epoch = false;  // a loss with no later epoch leaves no gap
    for (size_t j = i + 1; j < frames.size(); ++j) {
      later_epoch = later_epoch ||
                    (frames[j].type == spool::FrameType::Epoch &&
                     frames[j].worker == frames[i].worker);
    }
    if (!later_epoch) continue;
    std::string cut = bytes;
    cut.erase(frames[i].offset, frames[i].size);
    spool::RecoverResult rr = spool::recover_spool_bytes(cut);
    ASSERT_TRUE(rr.usable) << "epoch frame " << i;
    EXPECT_TRUE(rr.report.clean_footer) << "epoch frame " << i;
    EXPECT_EQ(rr.report.frames_corrupt, 0u) << "epoch frame " << i;
    EXPECT_EQ(rr.report.epoch_gaps, 1u) << "epoch frame " << i;
    EXPECT_TRUE(rr.report.degraded()) << "epoch frame " << i;
    salvage_trace(rr.trace);
    EXPECT_TRUE(validate_trace(rr.trace).empty()) << "epoch frame " << i;
    ++dropped;
  }
  EXPECT_GT(dropped, 4u);
}

TEST(SpoolCorpusTest, WalkerNamesEveryStop) {
  const std::string bytes = spool_bytes();
  const auto frames = spool::scan_frames(bytes);
  ASSERT_GT(frames.size(), 3u);
  const spool::FrameSpan& first = frames.front();
  const spool::FrameSpan& last = frames.back();
  const u64 at = first.offset;
  EXPECT_TRUE(spool::read_stream_header(bytes).ok());

  spool::FrameStep f = spool::next_frame(bytes, at);
  EXPECT_EQ(f.step, spool::Step::Frame);
  EXPECT_EQ(f.size(), first.size);
  EXPECT_TRUE(f.verifies());
  EXPECT_FALSE(f.footer);
  f = spool::next_frame(bytes, last.offset);
  EXPECT_EQ(last.type, spool::FrameType::CleanFooter);
  EXPECT_TRUE(f.footer);
  EXPECT_EQ(spool::next_frame(bytes, bytes.size()).step, spool::Step::End);
  EXPECT_EQ(spool::next_frame(bytes.substr(0, at + 10), at).step,
            spool::Step::TornHeader);
  EXPECT_EQ(spool::next_frame(bytes.substr(0, first.offset + first.size - 1),
                              at)
                .step,
            spool::Step::TornPayload);
  std::string garbled = bytes;
  garbled[at] = 'X';
  EXPECT_EQ(spool::next_frame(garbled, at).step, spool::Step::Garbled);
  std::string overrun = bytes;
  overrun[at + 13 + 4] = 0x40;  // payload_len byte 4: far past 1 GiB
  f = spool::next_frame(overrun, at);
  EXPECT_EQ(f.step, spool::Step::Overrun);
  EXPECT_GT(f.payload_len, spool::kMaxFramePayload);

  // A footer-typed frame whose checksum fails does not end the walk.
  std::string fake = bytes;
  fake[frames[2].offset + 4] = static_cast<char>(spool::FrameType::CleanFooter);
  f = spool::next_frame(fake, frames[2].offset);
  EXPECT_EQ(f.step, spool::Step::Frame);
  EXPECT_FALSE(f.footer);
  EXPECT_EQ(spool::scan_frames(fake).size(), frames.size());
}

TEST(SpoolCorpusTest, TelemetryDamageDegradesWithoutHurtingRecords) {
  // Telemetry ('T') frames are advisory: every way of damaging one must
  // degrade to "telemetry unavailable" (or the previous snapshot) and must
  // never surface as a damaged trace.
  const std::vector<std::string> payloads = {"snap-a", "snap-b", "snap-c"};
  const std::string bytes = spool::spool_trace_bytes(
      make_corpus_trace(), /*epoch_bytes=*/128, payloads);
  const auto records_of = [](const Trace& t) {
    std::ostringstream os;
    save_trace(t, os);
    return os.str();
  };
  const spool::RecoverResult clean = spool::recover_spool_bytes(bytes);
  ASSERT_TRUE(clean.usable) << clean.report.summary();
  ASSERT_EQ(clean.report.telemetry_frames, payloads.size());
  EXPECT_EQ(clean.report.telemetry, payloads.back());
  const std::string clean_records = records_of(clean.trace);

  for (size_t i = 0; i < payloads.size(); ++i) {
    // Payload rot: exactly one 'T' frame fails its checksum. The records
    // and the footer survive untouched and the damage is counted in
    // telemetry_corrupt, never in frames_corrupt.
    const std::string rotted =
        fault::flip_spool_telemetry(bytes, i, /*seed=*/i + 1);
    ASSERT_NE(rotted, bytes) << "T frame " << i << " not found";
    check_spool_invariants(rotted);
    const spool::RecoverResult rr = spool::recover_spool_bytes(rotted);
    ASSERT_TRUE(rr.usable) << "rotted T frame " << i;
    EXPECT_EQ(rr.report.telemetry_corrupt, 1u) << "T frame " << i;
    EXPECT_EQ(rr.report.telemetry_frames, payloads.size() - 1);
    EXPECT_EQ(rr.report.frames_corrupt, 0u) << "T frame " << i;
    EXPECT_TRUE(rr.report.clean_footer) << "T frame " << i;
    EXPECT_FALSE(rr.report.partial()) << "T frame " << i;
    EXPECT_EQ(records_of(rr.trace), clean_records) << "T frame " << i;
    // The last *intact* snapshot is served, or none when the newest rotted.
    EXPECT_EQ(rr.report.telemetry,
              i + 1 == payloads.size() ? payloads[i - 1] : payloads.back());
  }

  for (size_t i = 0; i < payloads.size(); ++i) {
    // Crash mid-telemetry-write: the stream ends inside the 'T' frame's
    // payload. Everything spooled before it must survive; telemetry
    // degrades to the previous snapshot (or to "unavailable").
    const std::string torn =
        fault::truncate_spool_telemetry(bytes, i, /*keep_payload=*/2);
    ASSERT_LT(torn.size(), bytes.size()) << "T frame " << i << " not found";
    check_spool_invariants(torn);
    const spool::RecoverResult rr = spool::recover_spool_bytes(torn);
    ASSERT_TRUE(rr.usable) << "torn T frame " << i;
    EXPECT_TRUE(rr.report.torn_tail) << "torn T frame " << i;
    EXPECT_FALSE(rr.report.clean_footer);
    EXPECT_EQ(rr.report.telemetry_frames, i);
    EXPECT_EQ(rr.report.telemetry, i == 0 ? "" : payloads[i - 1]);
  }
}

TEST(SpoolCorpusTest, CraftedCountsRejectedBeforeAllocation) {
  // A checksum-valid epoch frame whose payload *declares* 2^30 fragment
  // records (minimum encoded size 71 bytes each — dozens of GiB) in a
  // 32-byte payload. The decoder must reject the counts against the bytes
  // actually present before sizing any allocation from them; under ASan
  // a missing bound turns this into an allocation-failure crash.
  std::string payload;
  const auto put_u32 = [&payload](u32 v) {
    for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>(v >> (8 * i)));
  };
  const u32 counts[8] = {0, 0x40000000u, 0, 0, 0, 0, 0, 0};
  for (const u32 c : counts) put_u32(c);
  ASSERT_EQ(payload.size(), 32u);

  spool::RecordCounts checked;
  EXPECT_FALSE(spool::check_epoch_payload(payload, &checked));

  // The same payload riding a well-formed, checksum-valid frame inside an
  // otherwise pristine spool: recovery must skip exactly that frame (with
  // a diagnostic), keep every real record, and stay usable.
  std::string frame(spool::kFrameMagic, sizeof spool::kFrameMagic);
  frame.push_back(static_cast<char>(spool::FrameType::Epoch));
  const auto app_u32 = [&frame](u32 v) {
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto app_u64 = [&frame](u64 v) {
    for (int i = 0; i < 8; ++i) frame.push_back(static_cast<char>(v >> (8 * i)));
  };
  app_u32(0);     // worker
  app_u32(1000);  // seq, past any real epoch so the prefix check passes
  app_u64(payload.size());
  app_u64(spool::frame_checksum(spool::FrameType::Epoch, 0, 1000,
                                payload.data(), payload.size()));
  frame += payload;
  ASSERT_EQ(frame.size(), spool::kFrameHeaderBytes + payload.size());

  std::string bytes = spool_bytes();
  const auto frames = spool::scan_frames(bytes);
  ASSERT_FALSE(frames.empty());
  ASSERT_EQ(frames.back().type, spool::FrameType::CleanFooter);
  bytes.insert(frames.back().offset, frame);

  const spool::RecoverResult clean = spool::recover_spool_bytes(spool_bytes());
  const spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
  ASSERT_TRUE(rr.usable) << rr.report.summary();
  EXPECT_GE(rr.report.frames_corrupt, 1u);
  EXPECT_TRUE(rr.report.clean_footer);
  bool noted = false;
  for (const std::string& d : rr.report.diagnostics) {
    if (d.find("undecodable epoch at offset") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << rr.report.summary();
  // Identical records; the damaged recovery additionally carries the
  // "recovered ..." provenance note, which is the point of the exercise.
  const auto records_of = [](Trace t) {
    t.meta.notes.clear();
    std::ostringstream os;
    save_trace(t, os);
    return os.str();
  };
  EXPECT_EQ(records_of(rr.trace), records_of(clean.trace));
  EXPECT_FALSE(rr.trace.meta.notes.empty());
  check_spool_invariants(bytes);
}

// --- one validity rule per field, the same in every codec -------------------
//
// The record schema gives each field a kind, and the kind's rule decides:
// a stored value outside it is a malformed record in every codec, never a
// silently truncated or masked one.

/// The one fragment of the corpus trace that task 1 runs.
const FragmentRec& task1_fragment(const Trace& t) {
  for (const FragmentRec& f : t.fragments) {
    if (f.task == 1) return f;
  }
  ADD_FAILURE() << "corpus trace lost task 1's fragment";
  return t.fragments.front();
}

TEST(FieldRuleTest, GgbinCoreBeyondU16IsMalformed) {
  // GGTB3 widens a fragment's u16 core to a u32 on disk; 65536 does not fit
  // the member. The record starts with task u64, seq u32, start u64,
  // end u64, then core.
  const FragmentRec f = task1_fragment(make_corpus_trace());
  std::string head(28, '\0');
  std::memcpy(&head[0], &f.task, 8);
  std::memcpy(&head[8], &f.seq, 4);
  std::memcpy(&head[12], &f.start, 8);
  std::memcpy(&head[20], &f.end, 8);
  std::string bin = binary_bytes();
  const size_t rec = bin.find(head);
  ASSERT_NE(rec, std::string::npos);
  ASSERT_EQ(bin.find(head, rec + 1), std::string::npos);
  const u32 core = 65536;
  std::memcpy(&bin[rec + 28], &core, sizeof core);

  for (const LoadMode mode : {LoadMode::Strict, LoadMode::Lenient}) {
    std::istringstream is(bin);
    const LoadResult lr = load_trace_binary_ex(is, LoadOptions{mode, true});
    EXPECT_EQ(lr.status, LoadStatus::Failed);
    const LoadDiagnostic* d = lr.first_error();
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->code, LoadErrorCode::MalformedRecord);
    EXPECT_EQ(d->offset, rec);
    EXPECT_FALSE(d->offset_is_line);
    EXPECT_EQ(d->context, "fragments");
    EXPECT_EQ(d->message, "malformed fragment record");
  }
  // Salvage reports the record and drops it.
  std::istringstream is(bin);
  const LoadResult lr =
      load_trace_binary_ex(is, LoadOptions{LoadMode::Salvage, true});
  ASSERT_FALSE(lr.diagnostics.empty());
  EXPECT_EQ(lr.diagnostics.front().code, LoadErrorCode::MalformedRecord);
  EXPECT_EQ(lr.diagnostics.front().offset, rec);
  EXPECT_NE(lr.status, LoadStatus::Ok);
  check_invariants(bin, /*binary=*/true);

  // Text rejects the same value in the same field.
  std::string text = text_bytes();
  const std::string line = "frag " + std::to_string(f.task) + " " +
                           std::to_string(f.seq) + " " +
                           std::to_string(f.start) + " " +
                           std::to_string(f.end) + " ";
  const size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  const size_t core_at = at + line.size();
  text.replace(core_at, text.find(' ', core_at) - core_at, "65536");
  std::istringstream tis(text);
  const LoadResult tr = load_trace_ex(tis, LoadOptions{LoadMode::Strict, true});
  EXPECT_EQ(tr.status, LoadStatus::Failed);
  ASSERT_NE(tr.first_error(), nullptr);
  EXPECT_EQ(tr.first_error()->code, LoadErrorCode::MalformedRecord);
  EXPECT_EQ(tr.first_error()->context, "frag");
}

/// A checksum-valid epoch frame for `worker` at `seq` carrying `payload`.
std::string epoch_frame(u32 worker, u32 seq, const std::string& payload) {
  std::string frame(spool::kFrameMagic, sizeof spool::kFrameMagic);
  frame.push_back(static_cast<char>(spool::FrameType::Epoch));
  const u64 len = payload.size();
  const u64 sum = spool::frame_checksum(spool::FrameType::Epoch, worker, seq,
                                        payload.data(), payload.size());
  frame.append(reinterpret_cast<const char*>(&worker), 4);
  frame.append(reinterpret_cast<const char*>(&seq), 4);
  frame.append(reinterpret_cast<const char*>(&len), 8);
  frame.append(reinterpret_cast<const char*>(&sum), 8);
  return frame + payload;
}

TEST(FieldRuleTest, SpoolEnumBeyondMaxIsCorruptEpoch) {
  // An epoch payload is eight u32 counts, then the records at native widths.
  // A fragment stores task u64, seq u32, start u64, end u64, core u16, the
  // counters group, then end_reason u8; a loop stores uid u64,
  // enclosing_task u64, src u32, then sched u8.
  constexpr size_t kCounts = 32;
  constexpr size_t kEndReason = kCounts + 8 + 4 + 8 + 8 + 2 + 32;
  constexpr size_t kSched = kCounts + 8 + 8 + 4;
  spool::RecordBuffer frag_only;
  frag_only.fragments.emplace_back();
  spool::RecordBuffer loop_only;
  loop_only.loops.emplace_back();
  struct Case {
    const char* what;
    const spool::RecordBuffer* records;
    size_t at;
    u8 max;
  };
  for (const Case c : {Case{"end_reason", &frag_only, kEndReason, 3},
                       Case{"sched", &loop_only, kSched, 2}}) {
    std::string payload = spool::encode_epoch_payload(*c.records);
    spool::RecordCounts counts;
    payload[c.at] = static_cast<char>(c.max);
    EXPECT_TRUE(spool::check_epoch_payload(payload, &counts)) << c.what;
    for (const u8 bad : {u8(c.max + 1), u8(5), u8(255)}) {
      payload[c.at] = static_cast<char>(bad);
      EXPECT_FALSE(spool::check_epoch_payload(payload, &counts))
          << c.what << " = " << int(bad);
    }

    // Riding a checksum-valid frame in an otherwise pristine spool, the
    // epoch is counted corrupt and skipped; every real record survives.
    payload[c.at] = 5;
    std::string bytes = spool_bytes();
    const auto frames = spool::scan_frames(bytes);
    ASSERT_EQ(frames.back().type, spool::FrameType::CleanFooter);
    bytes.insert(frames.back().offset, epoch_frame(0, 1000, payload));
    const spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
    ASSERT_TRUE(rr.usable) << rr.report.summary();
    EXPECT_EQ(rr.report.frames_corrupt, 1u) << c.what;
    EXPECT_EQ(rr.trace.fragments.size(), make_corpus_trace().fragments.size());
    EXPECT_EQ(rr.trace.loops.size(), make_corpus_trace().loops.size());
    check_spool_invariants(bytes);
  }
}

// --- recovery is the same at every thread count ------------------------------
//
// Recovery verifies checksums and decodes epochs in parallel, then decides
// in frame order. On a spool big enough that both parallel passes split,
// every shape of damage those decisions handle must give the same trace
// bytes and the same RecoverReport at every thread count, and the same as
// a live tailer that sees the bytes arrive in small slices.

constexpr u32 kThreadsWorkers = 4;

/// A 4-worker spool of ~4 MB in 16 KiB epochs, with telemetry frames.
std::string big_spool_bytes() {
  SynthOptions so;
  so.seed = 19;
  so.grains = 20000;
  so.workers = static_cast<int>(kThreadsWorkers);
  return spool::spool_trace_bytes(synth_trace(so), 16 * 1024,
                                  {"snap-0", "snap-1", "snap-2", "snap-3"});
}

std::string payload_of(const std::string& bytes, const spool::FrameSpan& f) {
  return bytes.substr(f.offset + spool::kFrameHeaderBytes,
                      f.size - spool::kFrameHeaderBytes);
}

/// The first epoch frame at or past `fraction` of the stream whose worker
/// has a later epoch, so losing it leaves a gap.
size_t epoch_at(const std::vector<spool::FrameSpan>& frames, double fraction) {
  for (size_t i = static_cast<size_t>(fraction * frames.size());
       i < frames.size(); ++i) {
    if (frames[i].type != spool::FrameType::Epoch) continue;
    for (size_t j = i + 1; j < frames.size(); ++j) {
      if (frames[j].type == spool::FrameType::Epoch &&
          frames[j].worker == frames[i].worker)
        return i;
    }
  }
  ADD_FAILURE() << "no epoch frame past " << fraction;
  return 0;
}

std::string insert_at(std::string bytes, double fraction,
                      const std::string& frame) {
  const auto frames = spool::scan_frames(bytes);
  bytes.insert(frames[epoch_at(frames, fraction)].offset, frame);
  return bytes;
}

std::string rot_epoch(std::string bytes) {
  return fault::flip_spool_frame_checksum(
      bytes, epoch_at(spool::scan_frames(bytes), 0.3), /*seed=*/7);
}

std::string duplicate_and_backward_epoch(std::string bytes) {
  const auto frames = spool::scan_frames(bytes);
  const spool::FrameSpan& dup = frames[epoch_at(frames, 0.5)];
  const spool::FrameSpan& first = frames[epoch_at(frames, 0.0)];
  // The later insertion first, so the earlier offset stays valid.
  bytes.insert(frames[epoch_at(frames, 0.6)].offset,
               bytes.substr(first.offset, first.size));
  bytes.insert(dup.offset + dup.size, bytes.substr(dup.offset, dup.size));
  return bytes;
}

std::string unknown_worker_epoch(std::string bytes) {
  const auto frames = spool::scan_frames(bytes);
  const std::string payload = payload_of(bytes, frames[epoch_at(frames, 0.4)]);
  return insert_at(bytes, 0.8,
                   spool::encode_frame(spool::FrameType::Epoch,
                                       kThreadsWorkers, 0, payload));
}

std::string enum_beyond_max(std::string bytes) {
  // Re-encoded with a valid checksum: only the codec's fault check can
  // reject it. A fragment's end_reason sits 62 bytes into its record.
  const auto frames = spool::scan_frames(bytes);
  for (size_t i = epoch_at(frames, 0.65); i < frames.size(); ++i) {
    const spool::FrameSpan& f = frames[i];
    if (f.type != spool::FrameType::Epoch) continue;
    std::string payload = payload_of(bytes, f);
    u32 counts[2];
    std::memcpy(counts, payload.data(), sizeof counts);
    if (counts[1] == 0) continue;
    payload[32 + counts[0] * 43 + 62] = 5;
    bytes.replace(f.offset, f.size,
                  spool::encode_frame(f.type, f.worker, f.seq, payload));
    return bytes;
  }
  ADD_FAILURE() << "no epoch with fragments";
  return bytes;
}

std::string crafted_counts(std::string bytes) {
  std::string payload(32, '\0');
  const u32 fragments = 0x40000000u;
  std::memcpy(&payload[4], &fragments, sizeof fragments);
  return insert_at(bytes, 0.75,
                   spool::encode_frame(spool::FrameType::Epoch, 1, 1000,
                                       payload));
}

std::string strings_gap(std::string bytes) {
  return insert_at(bytes, 0.2,
                   spool::encode_frame(
                       spool::FrameType::Strings, 0, 0,
                       spool::encode_strings_payload(9999, {"orphan"})));
}

std::string rot_telemetry(std::string bytes) {
  return fault::flip_spool_telemetry(bytes, 1, /*seed=*/3);
}

std::string crash_footer(std::string bytes) {
  const auto frames = spool::scan_frames(bytes);
  std::string payload(64, '\0');
  payload[0] = 11;  // SIGSEGV, little-endian u32
  const std::string reason = "signal=11 SIGSEGV";
  payload.replace(4, reason.size(), reason);
  bytes.replace(frames.back().offset, frames.back().size,
                spool::encode_frame(spool::FrameType::CrashFooter, 0, 0,
                                    payload));
  return bytes;
}

std::string frames_after_footer(std::string bytes) {
  const auto frames = spool::scan_frames(bytes);
  const spool::FrameSpan& e = frames[epoch_at(frames, 0.5)];
  return bytes + bytes.substr(e.offset, e.size) + "trailing garbage";
}

std::string torn_tail(std::string bytes) {
  const auto frames = spool::scan_frames(bytes);
  size_t last = frames.size() - 1;
  while (frames[last].type != spool::FrameType::Epoch) --last;
  bytes.resize(frames[last].offset + spool::kFrameHeaderBytes + 100);
  return bytes;
}

struct Replica {
  bool usable = false;
  spool::RecoverReport report;
  std::string trace;  ///< the saved text trace
};

std::string saved(const Trace& t) {
  std::ostringstream os;
  save_trace(t, os);
  return os.str();
}

Replica batch_replica(const std::string& bytes, int threads) {
  spool::RecoverResult rr = spool::recover_spool_bytes(bytes, threads);
  return {rr.usable, std::move(rr.report), rr.usable ? saved(rr.trace) : ""};
}

/// A SpoolTailer that reads `bytes` as a writer appends them in small,
/// frame-unaligned slices, under a fake clock.
Replica live_replica(const std::string& bytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gg-threads-" + std::to_string(::getpid()) + ".ggspool"))
          .string();
  fault::LiveWriterPlan plan;
  plan.chunk_min = 512;
  plan.chunk_max = 8192;
  fault::LiveSpoolWriter writer(path, bytes, plan);
  serve::SpoolTailer tailer(path);
  u64 now = 1'000'000'000;
  for (int idle = 0; idle < 8; now += 10'000'000) {
    if (writer.done()) ++idle;
    writer.step();
    tailer.poll(now);
  }
  Replica r;
  r.usable = tailer.finalize();
  r.report = tailer.trace()->report();
  if (r.usable) r.trace = saved(tailer.trace()->trace());
  std::filesystem::remove(path);
  return r;
}

void expect_same(const Replica& got, const Replica& want, const char* what,
                 const std::string& who) {
  EXPECT_EQ(got.usable, want.usable) << what << " " << who;
  EXPECT_EQ(got.report.summary(), want.report.summary()) << what << " " << who;
  EXPECT_EQ(got.report.diagnostics, want.report.diagnostics)
      << what << " " << who;
  EXPECT_TRUE(got.report == want.report) << what << " " << who;
  EXPECT_TRUE(got.trace == want.trace) << what << " " << who;
}

bool has_diagnostic(const spool::RecoverReport& r, std::string_view text) {
  for (const std::string& d : r.diagnostics) {
    if (d.find(text) != std::string::npos) return true;
  }
  return false;
}

TEST(SpoolThreadsTest, DamagedSpoolsRecoverIdenticallyAtEveryThreadCount) {
  const std::string pristine = big_spool_bytes();
  // Both parallel passes split at every thread count: the epochs alone
  // are more than twice the floor, and no shape loses more than a few.
  u64 epoch_bytes = 0;
  for (const spool::FrameSpan& f : spool::scan_frames(pristine)) {
    if (f.type == spool::FrameType::Epoch) epoch_bytes += f.size;
  }
  ASSERT_GE(epoch_bytes, 2 * spool::kParallelApplyBytes);
  for (const int t : {2, 4, 8}) {
    EXPECT_EQ(spool::apply_block_count(epoch_bytes / 2, t),
              static_cast<size_t>(t));
  }

  using Check = std::function<void(const spool::RecoverReport&)>;
  struct Shape {
    const char* what;
    std::string bytes;
    Check check;
  };
  const std::vector<Shape> shapes = {
      {"pristine", pristine,
       [](const spool::RecoverReport& r) { EXPECT_FALSE(r.degraded()); }},
      {"checksum rot", rot_epoch(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_corrupt, 1u);
         EXPECT_EQ(r.epoch_gaps, 1u);
       }},
      {"duplicate and backward epoch", duplicate_and_backward_epoch(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_out_of_order, 2u);
         EXPECT_EQ(r.epoch_gaps, 0u);
       }},
      {"unknown worker", unknown_worker_epoch(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_corrupt, 1u);
         EXPECT_TRUE(has_diagnostic(r, "epoch for unknown worker 4"));
       }},
      {"enum beyond max", enum_beyond_max(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_corrupt, 1u);
         EXPECT_TRUE(has_diagnostic(r, "undecodable epoch at offset"));
       }},
      {"crafted counts", crafted_counts(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_corrupt, 1u);
         EXPECT_TRUE(has_diagnostic(r, "undecodable epoch at offset"));
       }},
      {"strings gap", strings_gap(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_out_of_order, 1u);
         EXPECT_TRUE(has_diagnostic(r, "does not extend the table"));
       }},
      {"corrupt telemetry", rot_telemetry(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.telemetry_corrupt, 1u);
         EXPECT_FALSE(r.degraded());
       }},
      {"crash footer", crash_footer(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.crash_reason, "signal=11 SIGSEGV");
         EXPECT_FALSE(r.clean_footer);
       }},
      {"frames after the footer", frames_after_footer(pristine),
       [](const spool::RecoverReport& r) { EXPECT_FALSE(r.degraded()); }},
      {"torn tail", torn_tail(pristine),
       [](const spool::RecoverReport& r) {
         EXPECT_TRUE(r.torn_tail);
         EXPECT_FALSE(r.clean_footer);
       }},
      {"every shape at once",
       torn_tail(rot_telemetry(strings_gap(crafted_counts(enum_beyond_max(
           unknown_worker_epoch(
               duplicate_and_backward_epoch(rot_epoch(pristine)))))))),
       [](const spool::RecoverReport& r) {
         EXPECT_EQ(r.frames_corrupt, 4u);
         EXPECT_EQ(r.frames_out_of_order, 3u);
         EXPECT_TRUE(r.torn_tail);
       }},
  };
  for (const Shape& s : shapes) {
    const Replica serial = batch_replica(s.bytes, 1);
    ASSERT_TRUE(serial.usable) << s.what;
    s.check(serial.report);
    for (const int t : {2, 4, 8}) {
      expect_same(batch_replica(s.bytes, t), serial, s.what,
                  "at " + std::to_string(t) + " threads");
    }
    expect_same(live_replica(s.bytes), serial, s.what, "live tailer");
  }
}

TEST(SpoolCorpusTest, EmptyAndGarbageSpoolsFailCleanly) {
  for (const std::string& bytes :
       {std::string(), std::string("garbage"), std::string("GGSPOOL1\n"),
        std::string("GGSPOOL1\n\x02\x00\x00\x00", 13),
        std::string(1000, '\0')}) {
    const spool::RecoverResult rr = spool::recover_spool_bytes(bytes);
    check_spool_invariants(bytes);
    if (!rr.usable) {
      EXPECT_FALSE(rr.report.clean_footer);
    }
  }
}

// A root that forks after its last join: the children it forked there
// would synchronize at the implicit barrier, which precedes their creation.
Trace root_forking_after_its_barrier() {
  Trace t;
  t.meta.num_workers = 1;
  t.meta.num_cores = 1;
  t.meta.region_end = 40;
  auto task = [&](TaskId uid, TaskId parent, u32 child_index) {
    TaskRec r;
    r.uid = uid;
    r.parent = parent;
    r.child_index = child_index;
    t.tasks.push_back(r);
  };
  auto frag = [&](TaskId task_uid, u32 seq, TimeNs s, TimeNs e,
                  FragmentEnd why, u64 ref) {
    FragmentRec f;
    f.task = task_uid;
    f.seq = seq;
    f.start = s;
    f.end = e;
    f.end_reason = why;
    f.end_ref = ref;
    t.fragments.push_back(f);
  };
  task(kRootTask, kNoTask, 0);
  task(1, kRootTask, 0);
  task(2, kRootTask, 1);
  frag(kRootTask, 0, 0, 10, FragmentEnd::Fork, 1);
  frag(kRootTask, 1, 12, 20, FragmentEnd::Join, 0);
  frag(kRootTask, 2, 22, 30, FragmentEnd::Fork, 2);
  frag(kRootTask, 3, 31, 32, FragmentEnd::TaskEnd, 0);
  frag(1, 0, 11, 15, FragmentEnd::TaskEnd, 0);
  frag(2, 0, 31, 35, FragmentEnd::TaskEnd, 0);
  JoinRec j;
  j.task = kRootTask;
  j.start = 20;
  j.end = 21;
  t.joins.push_back(j);
  t.finalize();
  return t;
}

TEST(SalvageBarrierTest, ValidateRefusesARootForkAfterItsLastJoin) {
  const std::vector<std::string> v =
      validate_trace(root_forking_after_its_barrier());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "root task forks task 2 after its last join (the implicit "
                  "barrier)");
}

TEST(SalvageBarrierTest, SalvageRestoresTheBarrierJoin) {
  Trace t = root_forking_after_its_barrier();
  const SalvageReport rep = salvage_trace(t);
  EXPECT_TRUE(validate_trace(t).empty());
  EXPECT_EQ(rep.synthesized_joins, 1u);
  EXPECT_EQ(rep.synthesized_fragments, 1u);
  const auto root = t.fragments_span(kRootTask);
  ASSERT_EQ(root.size(), 5u);
  EXPECT_EQ(root[3].end_reason, FragmentEnd::Join);
  EXPECT_EQ(root[4].end_reason, FragmentEnd::TaskEnd);
  ASSERT_NE(implicit_barrier(t), nullptr);
  EXPECT_EQ(implicit_barrier(t)->seq, 1u);
  const Analysis a = analyze(t, Topology::generic4());
  EXPECT_EQ(a.graph.topo_order().size(), a.graph.node_count());
}

// A spool that recovers clean but does not validate fails naming the
// violation, with the same "unsalvageable" line as a salvaged spool.
TEST(SalvageBarrierTest, CleanSpoolOfAnInvalidTraceFailsNamingTheViolation) {
  const std::string bytes =
      spool::spool_trace_bytes(root_forking_after_its_barrier(), 512);
  const LoadResult lr = load_recovered(spool::recover_spool_bytes(bytes, 1));
  ASSERT_TRUE(lr.recovery.has_value());
  EXPECT_FALSE(lr.recovery->degraded());
  EXPECT_EQ(lr.status, LoadStatus::Failed);
  EXPECT_EQ(lr.describe(),
            lr.recovery->summary() +
                "\nerror: recovered trace unsalvageable: root task forks "
                "task 2 after its last join (the implicit barrier)\n");
}

// Cuts of a spool whose root keeps forking between its joins: where the cut
// falls after a join and later forks, salvage used to leave the root forking
// after its last join, and the graph build aborted on the cycle. Every
// 4 KiB cut must recover, salvage, validate and analyze in-process.
TEST(SalvageBarrierTest, EveryCutOfASpoolIsAnalyzed) {
  SynthOptions so;
  so.seed = 31;
  so.workers = 4;
  so.grains = 4000;
  const std::string bytes = spool::spool_trace_bytes(synth_trace(so), 512);
  size_t cuts = 0, analyzed = 0, barrier_restored = 0;
  for (size_t keep = 4096; keep < bytes.size(); keep += 4096) {
    ++cuts;
    spool::RecoverResult rr = spool::recover_spool_bytes(bytes.substr(0, keep));
    if (!rr.usable) continue;
    const size_t root_joins = rr.trace.joins_span(kRootTask).size();
    const SalvageReport rep = salvage_trace(rr.trace);
    ASSERT_TRUE(validate_trace(rr.trace).empty())
        << "cut at " << keep << ": " << rep.summary();
    if (rr.trace.joins_span(kRootTask).size() > root_joins &&
        fork_after_last_join(rr.trace.fragments_span(kRootTask)) == nullptr)
      ++barrier_restored;
    const Analysis a = analyze(rr.trace, Topology::generic4());
    EXPECT_EQ(a.graph.topo_order().size(), a.graph.node_count())
        << "cut at " << keep;
    ++analyzed;
  }
  EXPECT_EQ(cuts, 212u);
  EXPECT_EQ(analyzed, cuts);
  EXPECT_GT(barrier_restored, 0u);
}

}  // namespace
}  // namespace gg
