#include "serve/tailer.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <vector>

namespace gg::serve {

namespace {

/// Per-poll read ceiling, so one huge backlog cannot starve other sessions
/// of the supervision loop.
constexpr u64 kMaxReadBytes = 1 << 20;

}  // namespace

const char* tail_state_name(TailState s) {
  switch (s) {
    case TailState::Opening: return "opening";
    case TailState::Header: return "header";
    case TailState::Streaming: return "streaming";
    case TailState::Waiting: return "waiting";
    case TailState::Sealed: return "sealed";
    case TailState::Crashed: return "crashed";
    case TailState::Failed: return "failed";
  }
  return "?";
}

SpoolTailer::SpoolTailer(std::string path, TailerOptions opts)
    : path_(std::move(path)), opts_(opts) {}

SpoolTailer::~SpoolTailer() {
  if (fd_ >= 0) ::close(fd_);
}

u64 SpoolTailer::resident_bytes() const {
  return pending_.size() + (inc_ ? inc_->resident_bytes() : 0);
}

bool SpoolTailer::ensure_open() {
  if (fd_ >= 0) return true;
  fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  return fd_ >= 0;
}

void SpoolTailer::set_stuck(spool::Step kind, u64 offset, u64 len, u64 now_ns) {
  if (stuck_ != kind || stuck_off_ != offset) {
    // A *new* stuck condition restarts the torn-tail deadline; the same
    // frame still stuck keeps its original clock so it cannot dodge the
    // deadline by being re-observed.
    stuck_since_ns_ = now_ns;
  }
  stuck_ = kind;
  stuck_off_ = offset;
  stuck_len_ = len;
}

size_t SpoolTailer::drain(u64 now_ns) {
  u64 cur = 0;
  if (!header_done_) {
    // The header may still be arriving; judge it only once it is whole.
    if (pending_.size() < spool::kStreamHeaderBytes) {
      state_ = TailState::Header;
      return 0;
    }
    const spool::StreamHeader header = spool::read_stream_header(pending_);
    if (!header.ok()) {
      state_ = TailState::Failed;
      fail_reason_ = header.error;
      return 0;
    }
    inc_ = std::make_unique<spool::IncrementalTrace>(header.num_workers);
    cur = spool::kStreamHeaderBytes;
    header_done_ = true;
    state_ = TailState::Streaming;
  }
  bool stuck_now = false;
  std::vector<spool::FrameStep> frames;
  for (;;) {
    spool::FrameStep f = spool::next_frame(pending_, cur);
    f.offset += base_;  // stream coordinates, as batch recovery reports them
    if (f.step != spool::Step::Frame) {
      if (f.step != spool::Step::End) {
        set_stuck(f.step, f.offset, f.payload_len, now_ns);
        stuck_now = true;
      }
      break;
    }
    frames.push_back(f);
    cur += f.size();
    if (f.footer) {
      state_ = f.type == spool::FrameType::CleanFooter ? TailState::Sealed
                                                       : TailState::Crashed;
      break;
    }
  }
  // The frames view pending_, so they are applied before it is trimmed.
  inc_->apply_frames(frames, 1);
  stats_.frames_applied += frames.size();
  // Any pass that ends without re-observing a stuck span means the writer
  // completed the frame we were waiting on (or we sealed past it) — a stale
  // stuck_ left behind here would surface at finalize() as a phantom
  // torn-tail note on a clean stream.
  if (!stuck_now) stuck_ = spool::Step::End;
  if (cur > 0) {
    pending_.erase(0, cur);
    base_ += cur;
    stats_.bytes_consumed = base_;
  }
  return frames.size();
}

bool SpoolTailer::try_resync() {
  // Only abandon the stuck span for a later frame that is *provably* good:
  // a whole frame whose checksum verifies. Anything weaker could resync
  // into the middle of an in-flight write and lose more than the one bad
  // frame.
  if (stuck_off_ < base_) return false;
  for (u64 i = stuck_off_ - base_ + 1; i < pending_.size(); ++i) {
    const spool::FrameStep f = spool::next_frame(pending_, i);
    if (f.step != spool::Step::Frame || !f.verifies()) continue;
    inc_->note_abandoned(stuck_off_, base_ + i);
    ++stats_.resyncs;
    pending_.erase(0, i);
    base_ += i;
    stats_.bytes_consumed = base_;
    stuck_ = spool::Step::End;
    return true;
  }
  return false;
}

void SpoolTailer::schedule_retry(u64 now_ns, bool made_progress) {
  if (made_progress) {
    backoff_ns_ = opts_.retry_initial_ns;
  } else {
    backoff_ns_ = std::min(
        std::max(backoff_ns_ * 2, opts_.retry_initial_ns), opts_.retry_max_ns);
  }
  next_poll_ns_ = now_ns + backoff_ns_;
}

size_t SpoolTailer::poll(u64 now_ns) {
  if (finalized_ || state_ == TailState::Sealed ||
      state_ == TailState::Crashed || state_ == TailState::Failed) {
    return 0;
  }
  if (now_ns < next_poll_ns_) {
    ++stats_.idle_polls;
    return 0;
  }
  if (!ensure_open()) {
    // Not created yet (the writer may still be starting up): retry with
    // the same backoff the torn tail uses.
    schedule_retry(now_ns, false);
    return 0;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    schedule_retry(now_ns, false);
    return 0;
  }
  const u64 size = static_cast<u64>(st.st_size);
  if (size < base_ + pending_.size()) {
    // The file shrank under the tail: it was truncated or replaced. The
    // already-applied prefix stays; nothing after it can be trusted.
    state_ = TailState::Failed;
    fail_reason_ = "spool truncated under the tail (size " +
                   std::to_string(size) + " < consumed " +
                   std::to_string(base_ + pending_.size()) + ")";
    return 0;
  }
  file_size_ = size;
  u64 read_from = base_ + pending_.size();
  u64 budget = kMaxReadBytes;
  bool grew = false;
  char buf[64 * 1024];
  while (read_from < size && budget > 0) {
    const size_t want = static_cast<size_t>(
        std::min<u64>({sizeof buf, size - read_from, budget}));
    const ssize_t n =
        ::pread(fd_, buf, want, static_cast<off_t>(read_from));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    pending_.append(buf, static_cast<size_t>(n));
    read_from += static_cast<u64>(n);
    budget -= static_cast<u64>(n);
    grew = true;
  }
  if (grew) ++stats_.reads;

  size_t applied = drain(now_ns);
  if (state_ == TailState::Sealed || state_ == TailState::Crashed ||
      state_ == TailState::Failed) {
    return applied;
  }
  if (tail_stuck() &&
      now_ns - stuck_since_ns_ >= opts_.torn_deadline_ns) {
    if (try_resync()) {
      applied += drain(now_ns);
      if (state_ == TailState::Sealed || state_ == TailState::Crashed)
        return applied;
    }
  }
  if (tail_stuck()) {
    state_ = TailState::Waiting;
  } else if (header_done_) {
    state_ = TailState::Streaming;
  }
  schedule_retry(now_ns, grew || applied > 0);
  return applied;
}

bool SpoolTailer::finalize() {
  if (finalized_) return usable_;
  finalized_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!header_done_) {
    if (fail_reason_.empty()) {
      fail_reason_ = pending_.empty()
                         ? "spool never appeared"
                         : spool::read_stream_header(pending_).error;
    }
    state_ = TailState::Failed;
    usable_ = false;
    return false;
  }
  // Map the unresolved tail to exactly what batch recovery would say about
  // the same final bytes (wording and counters are pinned by tests).
  inc_->note_tail(stuck_, stuck_off_, stuck_len_);
  usable_ = inc_->finish();
  if (!usable_ && state_ != TailState::Failed) {
    state_ = TailState::Failed;
    if (fail_reason_.empty()) fail_reason_ = "no recoverable frames";
  }
  return usable_;
}

}  // namespace gg::serve
