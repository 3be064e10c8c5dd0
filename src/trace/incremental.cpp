#include "trace/incremental.hpp"

#include <algorithm>
#include <string>

#include "common/par_for.hpp"
#include "obs/telemetry.hpp"
#include "trace/record_schema.hpp"

namespace gg::spool {

namespace {

u32 read_le32_at(std::string_view s, size_t pos) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<u32>(static_cast<u8>(s[pos + static_cast<size_t>(i)]))
         << (8 * i);
  return v;
}

/// Squashes a multi-line diagnostic into one provenance note ("; "-joined):
/// notes must stay single-line for the text trace format.
std::string collapse_lines(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_sep = false;
  for (char c : text) {
    if (c == '\n') {
      pending_sep = true;
      continue;
    }
    if (pending_sep && !out.empty()) out += "; ";
    pending_sep = false;
    out.push_back(c);
  }
  return out;
}

/// Runs fn(begin, end) over apply_block_count() contiguous ranges of
/// [0, n) that hold about equal shares of the bytes bytes_of(i) sums to;
/// one thread per range, the first on the caller. The ranges depend only
/// on the sizes.
template <class BytesOf, class Fn>
void for_byte_blocks(size_t n, int threads, BytesOf&& bytes_of, Fn&& fn) {
  if (n == 0) return;
  u64 total = 0;
  for (size_t i = 0; i < n; ++i) total += bytes_of(i);
  const size_t blocks = apply_block_count(total, threads);
  if (blocks <= 1) {
    fn(size_t{0}, n);
    return;
  }
  std::vector<size_t> cut(blocks + 1, n);
  cut[0] = 0;
  u64 before = 0;  // bytes of items [0, i)
  size_t b = 1;
  for (size_t i = 0; i < n && b < blocks; ++i) {
    while (b < blocks && before >= total * b / blocks) cut[b++] = i;
    before += bytes_of(i);
  }
  par_for_shard(blocks, [&](size_t s) {
    if (cut[s] < cut[s + 1]) fn(cut[s], cut[s + 1]);
  });
}

}  // namespace

size_t apply_block_count(u64 bytes, int threads) {
  if (threads <= 1 || bytes < kParallelApplyBytes) return 1;
  return static_cast<size_t>(threads);
}

/// Pass 1's findings on one frame.
struct IncrementalTrace::Verdict {
  bool verifies = false;  ///< the checksum matches
  bool decodes = false;   ///< an 'E' payload that check_epoch_payload accepts
  RecordCounts counts{};  ///< its record counts, when it decodes
};

/// A kept epoch and where its records go.
struct IncrementalTrace::Placement {
  std::string_view payload;
  RecordCounts at{};
};

IncrementalTrace::IncrementalTrace(u32 num_workers)
    : num_workers_(num_workers) {
  report_.epochs_per_worker.assign(num_workers, 0);
  next_seq_.assign(num_workers, 0);
}

void IncrementalTrace::apply_frames(std::span<const FrameStep> frames,
                                    int threads) {
  std::vector<Verdict> verdicts(frames.size());
  {
    obs::PhaseSpan span("spool.verify");
    for_byte_blocks(
        frames.size(), threads, [&](size_t i) { return frames[i].size(); },
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            const FrameStep& f = frames[i];
            Verdict& v = verdicts[i];
            v.verifies = f.verifies();
            if (v.verifies && f.type == FrameType::Epoch) {
              v.decodes = check_epoch_payload(f.payload, &v.counts);
            }
          }
        });
  }

  std::vector<Placement> placements;
  {
    obs::PhaseSpan span("spool.apply");
    RecordCounts end{};
    size_t kind = 0;
    schema::for_each_vector(trace_, [&](auto& v) { end[kind++] = v.size(); });
    for (size_t i = 0; i < frames.size(); ++i) {
      decide(frames[i], verdicts[i], end, placements);
    }
    kind = 0;
    schema::for_each_vector(trace_, [&](auto& v) { v.resize(end[kind++]); });
  }

  obs::PhaseSpan span("spool.place");
  for_byte_blocks(
      placements.size(), threads,
      [&](size_t i) { return placements[i].payload.size(); },
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          place_epoch_payload(placements[i].payload, trace_, placements[i].at);
        }
      });
}

void IncrementalTrace::decide(const FrameStep& frame, const Verdict& verdict,
                              RecordCounts& end,
                              std::vector<Placement>& placements) {
  RecoverReport& rep = report_;
  Trace& t = trace_;
  const FrameType type = frame.type;
  const u32 worker = frame.worker;
  const u32 seq = frame.seq;
  const std::string_view payload = frame.payload;
  const u64 offset = frame.offset;
  ++rep.frames_total;
  if (!verdict.verifies) {
    if (type == FrameType::Telemetry) {
      // Telemetry is advisory: a corrupt snapshot degrades to "telemetry
      // unavailable" without damaging the recovered trace.
      ++rep.telemetry_corrupt;
      rep.diagnostics.push_back("corrupt telemetry frame at offset " +
                                std::to_string(offset) +
                                ", telemetry degraded");
      return;
    }
    ++rep.frames_corrupt;
    rep.diagnostics.push_back("checksum mismatch in frame at offset " +
                              std::to_string(offset) + ", skipped");
    return;
  }
  switch (type) {
    case FrameType::Meta:
    case FrameType::CleanFooter: {
      TraceMeta m;
      if (!decode_meta_payload(payload, &m)) {
        ++rep.frames_corrupt;
        rep.diagnostics.push_back("undecodable meta frame at offset " +
                                  std::to_string(offset));
        return;
      }
      t.meta = std::move(m);
      have_meta_ = true;
      ++rep.frames_kept;
      if (type == FrameType::CleanFooter) rep.clean_footer = true;
      return;
    }
    case FrameType::Strings: {
      if (payload.size() < 8) {
        ++rep.frames_out_of_order;
        rep.diagnostics.push_back("string delta at offset " +
                                  std::to_string(offset) +
                                  " does not extend the table, skipped");
        return;
      }
      const u32 first_id = read_le32_at(payload, 0);
      const u32 count = read_le32_at(payload, 4);
      if (first_id != t.strings.size()) {
        ++rep.frames_out_of_order;
        rep.diagnostics.push_back("string delta at offset " +
                                  std::to_string(offset) +
                                  " does not extend the table, skipped");
        return;
      }
      // Intern as we decode (the valid prefix of a half-garbled delta is
      // still worth keeping — its ids are referenced by sealed epochs).
      size_t pos = 8;
      bool ok = true;
      for (u32 i = 0; i < count; ++i) {
        if (payload.size() - pos < 4) {
          ok = false;
          break;
        }
        const u32 len = read_le32_at(payload, pos);
        pos += 4;
        if (payload.size() - pos < len) {
          ok = false;
          break;
        }
        t.strings.intern(std::string(payload.substr(pos, len)));
        resident_bytes_ += len;
        pos += len;
      }
      if (!ok) {
        ++rep.frames_corrupt;
        rep.diagnostics.push_back("undecodable string delta at offset " +
                                  std::to_string(offset));
        return;
      }
      ++rep.frames_kept;
      return;
    }
    case FrameType::Epoch: {
      if (worker >= num_workers_) {
        ++rep.frames_corrupt;
        rep.diagnostics.push_back("epoch for unknown worker " +
                                  std::to_string(worker) + ", skipped");
        return;
      }
      if (seq < next_seq_[worker]) {
        ++rep.frames_out_of_order;
        rep.diagnostics.push_back(
            "worker " + std::to_string(worker) + " epoch seq " +
            std::to_string(seq) + " breaks the contiguous prefix (want " +
            std::to_string(next_seq_[worker]) + "), skipped");
        return;
      }
      if (!verdict.decodes) {
        ++rep.frames_corrupt;
        rep.diagnostics.push_back("undecodable epoch at offset " +
                                  std::to_string(offset));
        return;
      }
      if (seq > next_seq_[worker]) {
        // The epochs in between rode frames that were skipped as corrupt.
        // Apply this one anyway: the bound is one epoch lost per bad frame.
        rep.epoch_gaps += seq - next_seq_[worker];
        rep.diagnostics.push_back(
            "worker " + std::to_string(worker) + " epoch seq " +
            std::to_string(seq) + " jumps the contiguous prefix (want " +
            std::to_string(next_seq_[worker]) + "): " +
            std::to_string(seq - next_seq_[worker]) + " epoch(s) lost");
      }
      placements.push_back({payload, end});
      size_t kind = 0;
      schema::for_each_record([&](auto rec) {
        const size_t n = verdict.counts[kind];
        resident_bytes_ += n * sizeof(typename decltype(rec)::type);
        end[kind++] += n;
      });
      next_seq_[worker] = seq + 1;
      ++rep.epochs_per_worker[worker];
      ++rep.frames_kept;
      return;
    }
    case FrameType::Dump: {
      if (!rep.supervisor_dump.empty()) rep.supervisor_dump += "\n";
      rep.supervisor_dump.append(payload);
      resident_bytes_ += payload.size();
      ++rep.frames_kept;
      return;
    }
    case FrameType::CrashFooter: {
      u32 sig = 0;
      std::string reason;
      if (payload.size() >= 4) {
        sig = read_le32_at(payload, 0);
        for (size_t i = 4; i < payload.size(); ++i) {
          const char c = payload[i];
          if (c == 0) break;
          reason.push_back(c);
        }
      }
      rep.crash_reason =
          !reason.empty() ? reason : "signal=" + std::to_string(sig);
      ++rep.frames_kept;
      return;
    }
    case FrameType::Telemetry: {
      // Keep the last valid snapshot: a crashed run's final 'T' frame is
      // its last known health state (ggstat reports it post-mortem).
      resident_bytes_ -= rep.telemetry.size();
      rep.telemetry.assign(payload);
      resident_bytes_ += rep.telemetry.size();
      ++rep.telemetry_frames;
      ++rep.frames_kept;
      return;
    }
    default:
      ++rep.frames_corrupt;
      rep.diagnostics.push_back("unknown frame type at offset " +
                                std::to_string(offset) + ", skipped");
      return;
  }
}

void IncrementalTrace::note_tail(Step step, u64 offset, u64 payload_len) {
  const std::string at = std::to_string(offset);
  switch (step) {
    case Step::Frame:
    case Step::End:
      return;
    case Step::TornHeader:
      report_.diagnostics.push_back("torn frame header at offset " + at);
      break;
    case Step::Garbled:
      report_.diagnostics.push_back("garbled frame magic at offset " + at);
      break;
    case Step::Overrun:
    case Step::TornPayload:
      ++report_.frames_total;
      report_.diagnostics.push_back("frame at offset " + at +
                                    " overruns the file (len=" +
                                    std::to_string(payload_len) + ")");
      break;
  }
  report_.torn_tail = true;
}

void IncrementalTrace::note_abandoned(u64 offset, u64 resume_offset) {
  ++report_.frames_total;
  ++report_.frames_corrupt;
  report_.diagnostics.push_back(
      "frame at offset " + std::to_string(offset) +
      " abandoned after the torn-tail deadline, resynced at offset " +
      std::to_string(resume_offset));
}

void IncrementalTrace::extend_region_to_records(Trace& t) {
  TimeNs max_end = t.meta.region_end;
  for (const auto& f : t.fragments) max_end = std::max(max_end, f.end);
  for (const auto& j : t.joins) max_end = std::max(max_end, j.end);
  for (const auto& c : t.chunks) max_end = std::max(max_end, c.end);
  for (const auto& b : t.bookkeeps) max_end = std::max(max_end, b.end);
  for (const auto& l : t.loops) max_end = std::max(max_end, l.end);
  t.meta.region_end = max_end;
}

bool IncrementalTrace::finish(int threads) {
  if (finished_) return usable_;
  finished_ = true;
  Trace& t = trace_;
  RecoverReport& rep = report_;
  const bool any_records =
      !t.tasks.empty() || !t.fragments.empty() || !t.chunks.empty() ||
      !t.loops.empty() || !t.joins.empty();
  if (!have_meta_ && !any_records) {
    rep.diagnostics.push_back("no recoverable frames");
    usable_ = false;
    return false;
  }
  if (!have_meta_) {
    t.meta.program = "<recovered>";
    t.meta.runtime = "recovered";
    t.meta.num_workers = static_cast<int>(num_workers_);
    t.meta.num_cores = static_cast<int>(num_workers_);
    rep.diagnostics.push_back("meta frame missing; synthesized defaults");
  }
  if (!rep.clean_footer) {
    // The footer carries the final region bounds; without it, extend the
    // region to cover everything that was recovered.
    extend_region_to_records(t);
  }
  if (rep.degraded()) {
    t.meta.notes.push_back("recovered " + rep.summary());
    if (!rep.crash_reason.empty())
      t.meta.notes.push_back("crash " + rep.crash_reason);
  }
  if (!rep.supervisor_dump.empty())
    t.meta.notes.push_back("supervisor " + collapse_lines(rep.supervisor_dump));
  {
    obs::PhaseSpan span("spool.finalize");
    t.finalize(threads);
  }
  usable_ = true;
  return true;
}

}  // namespace gg::spool
