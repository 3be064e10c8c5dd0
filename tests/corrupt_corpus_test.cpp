// Corrupted-trace corpus: systematically damage serialized traces (truncate
// at every record boundary and every byte, flip a bit at every byte) and
// assert the hardened loaders never crash, never hang, and always land in
// one of three states: loaded clean, salvaged (then structurally valid), or
// failed with diagnostics. This is the regression corpus the ASan/UBSan CI
// job runs.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "fault/fault.hpp"
#include "trace/recorder.hpp"
#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
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
  if (rr.report.partial() || rr.report.frames_corrupt > 0 ||
      rr.report.torn_tail || rr.report.frames_out_of_order > 0 ||
      rr.report.epoch_gaps > 0) {
    salvage_trace(rr.trace);
  }
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

  spool::RecordBuffer buf;
  EXPECT_FALSE(spool::decode_epoch_payload(payload, &buf));
  EXPECT_TRUE(buf.fragments.empty());

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
    spool::RecordBuffer out;
    payload[c.at] = static_cast<char>(c.max);
    EXPECT_TRUE(spool::decode_epoch_payload(payload, &out)) << c.what;
    for (const u8 bad : {u8(c.max + 1), u8(5), u8(255)}) {
      payload[c.at] = static_cast<char>(bad);
      EXPECT_FALSE(spool::decode_epoch_payload(payload, &out))
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

}  // namespace
}  // namespace gg
