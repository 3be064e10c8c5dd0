#include "serve/session.hpp"

#include <algorithm>

#include "analysis/report.hpp"
#include "trace/load_result.hpp"
#include "trace/record_schema.hpp"
#include "trace/salvage.hpp"
#include "trace/validate.hpp"

namespace gg::serve {

namespace {

std::optional<Topology> topology_by_name(const std::string& name) {
  if (name == "opteron48") return Topology::opteron48();
  if (name == "generic16") return Topology::generic16();
  if (name == "generic4") return Topology::generic4();
  return std::nullopt;
}

}  // namespace

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::Live: return "live";
    case SessionState::Sealed: return "sealed";
    case SessionState::Crashed: return "crashed";
    case SessionState::Stale: return "stale";
    case SessionState::Failed: return "failed";
  }
  return "?";
}

bool recovery_degraded(const spool::RecoverReport& rep) {
  return rep.degraded();
}

std::string analysis_report_text(const Trace& trace) {
  Topology topo = Topology::generic4();
  if (auto from_meta = topology_by_name(trace.meta.topology))
    topo = *from_meta;
  const Analysis a = analyze(trace, topo);
  return render_report(trace, a);
}

Session::Session(u64 id, std::string path, const SessionOptions& opts)
    : id_(id),
      path_(path),
      stale_after_ns_(opts.stale_after_ns),
      tailer_(std::make_unique<SpoolTailer>(std::move(path), opts.tailer)) {}

Session::Session(u64 id, wire::Token token, std::string name,
                 u64 stale_after_ns, u64 now_ns)
    : id_(id),
      name_(std::move(name)),
      token_(token),
      stale_after_ns_(stale_after_ns),
      last_activity_ns_(now_ns) {}

const spool::IncrementalTrace* Session::live_locked() const {
  return tailer_ ? tailer_->trace() : inc_.get();
}

const spool::RecoverReport* Session::report_locked() const {
  if (finalized_) return &report_;
  const spool::IncrementalTrace* inc = live_locked();
  return inc != nullptr ? &inc->report() : nullptr;
}

u64 Session::resident_locked() const {
  if (finalized_) return schema::record_bytes(trace_);
  if (tailer_) return tailer_->resident_bytes();
  return inc_ ? inc_->resident_bytes() : 0;
}

size_t Session::tick(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return 0;
  if (last_activity_ns_ == 0) last_activity_ns_ = now_ns;
  if (paused_) return 0;
  size_t applied = 0;
  if (tailer_) {
    const u64 size_before = tailer_->file_size();
    applied = tailer_->poll(now_ns);
    if (applied > 0 || tailer_->file_size() != size_before)
      last_activity_ns_ = now_ns;
    const TailState ts = tailer_->state();
    if (ts == TailState::Sealed || ts == TailState::Crashed ||
        ts == TailState::Failed) {
      // A footer (or an unrecoverable stream) ends the file now; a crash
      // footer hands the stream to recovery immediately.
      finalize_locked(now_ns, natural_end_locked());
      return applied;
    }
  }
  // Connection threads stamp activity with their own clock reads, which may
  // be fractionally ahead of this tick's `now`; the guarded comparison keeps
  // the subtraction from underflowing into "stale for eons".
  if (now_ns > last_activity_ns_ &&
      now_ns - last_activity_ns_ >= stale_after_ns_) {
    // Writer or client death: no growth, no footer, deadline passed.
    finalize_locked(now_ns, natural_end_locked());
  }
  return applied;
}

bool Session::pause(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tailer_ || paused_ || finalized_) return false;
  paused_ = true;
  // Pausing must not feed the staleness clock: a paused session's writer
  // may be perfectly alive.
  last_activity_ns_ = now_ns;
  return true;
}

bool Session::resume(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!paused_) return false;
  paused_ = false;
  last_activity_ns_ = now_ns;
  return !finalized_;
}

bool Session::paused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paused_;
}

bool Session::tailing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tailer_ && !paused_ && !finalized_;
}

void Session::finalize(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!finalized_) finalize_locked(now_ns, natural_end_locked());
}

SessionState Session::natural_end_locked() const {
  if (tailer_) {
    switch (tailer_->state()) {
      case TailState::Sealed: return SessionState::Sealed;
      case TailState::Crashed: return SessionState::Crashed;
      case TailState::Failed: return SessionState::Failed;
      default: return SessionState::Stale;
    }
  }
  // A pushed footer ends the stream cleanly even if its SEAL never came.
  return footer_seen_ ? SessionState::Sealed : SessionState::Stale;
}

const char* Session::finalize_locked(u64 now_ns, SessionState end,
                                     spool::Step tail, u64 tail_offset,
                                     u64 tail_len) {
  last_activity_ns_ = now_ns;
  spool::IncrementalTrace* inc = tailer_ ? tailer_->trace() : inc_.get();
  // The tail note batch recovery would stamp for the same final bytes
  // (wording pinned by the parity tests), then finish(). The tailer knows
  // its own unresolved tail; a wire stream's comes with its SEAL.
  if (tailer_) {
    usable_ = tailer_->finalize();
  } else if (inc != nullptr) {
    inc->note_tail(tail, tail_offset, tail_len);
    usable_ = inc->finish();
  }
  if (inc != nullptr) report_ = inc->report();
  const char* failure = nullptr;
  if (!usable_) {
    failure = "nothing recoverable";
  } else {
    // A crash footer is the better diagnosis than staleness or the seal
    // that followed it.
    if (!report_.crash_reason.empty() && end != SessionState::Failed)
      end = SessionState::Crashed;
    // The batch loader's spool hand-off: degraded streams run the salvage
    // pass before analysis, clean ones are used as-is.
    LoadResult lr = load_recovered({true, std::move(inc->trace()), report_});
    if (lr.usable()) {
      trace_ = std::move(*lr.trace);
    } else {
      usable_ = false;
      failure = "trace failed validation";
    }
  }
  inc_.reset();
  state_ = usable_ ? end : SessionState::Failed;
  finalized_.store(true, std::memory_order_release);
  return failure;
}

Session::Apply Session::offer(u32 num_workers, u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  last_activity_ns_ = now_ns;
  if (finalized_) {
    return {wire::Status::SessionErr, acked_seq_, "stream already finalized"};
  }
  if (inc_) {
    if (num_workers != num_workers_) {
      return {wire::Status::SessionErr, acked_seq_,
              "OFFER worker count " + std::to_string(num_workers) +
                  " conflicts with accepted " + std::to_string(num_workers_)};
    }
    return {wire::Status::Ok, acked_seq_, "offer accepted (resume)"};
  }
  inc_ = std::make_unique<spool::IncrementalTrace>(num_workers);
  num_workers_ = num_workers;
  return {wire::Status::Ok, acked_seq_, "offer accepted"};
}

Session::Apply Session::apply_epoch(u32 seq, const wire::EpochMsg& msg,
                                    u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  last_activity_ns_ = now_ns;
  if (finalized_)
    return {wire::Status::SessionErr, acked_seq_, "stream already finalized"};
  if (!inc_)
    return {wire::Status::BadProto, acked_seq_, "EPOCH before OFFER"};
  if (seq == 0)
    return {wire::Status::BadProto, acked_seq_, "EPOCH seq 0"};
  if (seq <= acked_seq_) {
    // Retransmit of an already-applied epoch (resume overlap): re-ACK, do
    // not fold it twice.
    return {wire::Status::Ok, acked_seq_, "duplicate"};
  }
  if (seq != acked_seq_ + 1) {
    return {wire::Status::SessionErr, acked_seq_,
            "EPOCH seq " + std::to_string(seq) + " skips acked " +
                std::to_string(acked_seq_)};
  }
  if (footer_seen_) {
    // The walker ends every stream at its verified footer; bytes after it
    // never reach the trace, so accepting them here would break parity.
    return {wire::Status::SessionErr, acked_seq_, "EPOCH after footer"};
  }
  spool::FrameStep f = spool::next_frame(msg.spool_frame, 0);
  if (f.step == spool::Step::Garbled) {
    return {wire::Status::SessionErr, acked_seq_,
            "EPOCH does not carry a spool frame (bad inner magic)"};
  }
  if (f.step != spool::Step::Frame || f.size() != msg.spool_frame.size()) {
    // Exactly one complete frame per EPOCH; a length that disagrees with
    // the carried bytes is a client bug, not stream damage (damage with a
    // lying length is an overrun tail, expressed via SEAL).
    return {wire::Status::SessionErr, acked_seq_,
            "inner frame length " + std::to_string(f.payload_len) +
                " does not match carried bytes"};
  }
  f.offset = msg.spool_offset;  // diagnostics name the source offset
  inc_->apply_frames({&f, 1}, 1);
  footer_seen_ = f.footer;
  acked_seq_ = seq;
  return {wire::Status::Ok, acked_seq_, {}};
}

Session::Apply Session::seal(const wire::SealMsg& msg, u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) {
    // Resume after a lost final ACK: the stream is already finalized with
    // exactly these bytes; just re-ACK so the client can finish.
    return {usable_ ? wire::Status::Ok : wire::Status::SessionErr, acked_seq_,
            usable_ ? "sealed" : "finalized unusable"};
  }
  if (!inc_)
    return {wire::Status::BadProto, acked_seq_, "SEAL before OFFER"};
  const char* failure =
      finalize_locked(now_ns, SessionState::Sealed, wire::tail_step(msg.end),
                      msg.end_offset, msg.end_len);
  if (failure != nullptr)
    return {wire::Status::SessionErr, acked_seq_, failure};
  return {wire::Status::Ok, acked_seq_, "sealed"};
}

u64 Session::adopt() {
  return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

u64 Session::generation() const {
  return generation_.load(std::memory_order_acquire);
}

bool Session::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inc_ != nullptr || finalized_;
}

u64 Session::acked_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_seq_;
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

bool Session::usable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return usable_;
}

u64 Session::idle_since_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(last_activity_ns_, last_query_ns_);
}

void Session::touch_query(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  last_query_ns_ = now_ns;
}

u64 Session::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_locked();
}

std::optional<spool::RecoverReport> Session::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  const spool::RecoverReport* rep = report_locked();
  if (rep == nullptr) return std::nullopt;
  return *rep;
}

const Trace* Session::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finalized_ && usable_ ? &trace_ : nullptr;
}

std::string Session::status_line(bool wait) const {
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (wait) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return {};
  }
  const spool::RecoverReport* rep = report_locked();
  std::string line =
      wire() ? "ingest " + std::to_string(id_) + " " +
                   (name_.empty() ? "(unnamed)" : name_) +
                   " token=" + token_.hex().substr(0, 12)
             : "session " + std::to_string(id_) + " " + path_;
  line += " ";
  line += session_state_name(state_);
  if (paused_) line += " (paused)";
  line += " frames=" + std::to_string(rep ? rep->frames_kept : 0);
  u64 epochs = 0;
  if (rep != nullptr)
    for (u64 e : rep->epochs_per_worker) epochs += e;
  line += " epochs=" + std::to_string(epochs);
  if (wire()) line += " acked=" + std::to_string(acked_seq_);
  line += " resident=" + std::to_string(resident_locked());
  if (rep != nullptr && !rep->crash_reason.empty())
    line += " crash=\"" + rep->crash_reason + "\"";
  return line;
}

std::string Session::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  const spool::RecoverReport* rep = report_locked();
  if (rep == nullptr) return "no data yet\n";
  return rep->summary() + "\n";
}

std::string Session::report_text() const {
  Trace copy;
  bool final = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_) {
      if (!usable_) return {};
      final = true;
    } else {
      const spool::IncrementalTrace* inc = live_locked();
      if (inc == nullptr) return {};
      copy = inc->trace();
    }
  }
  // A finalized trace never changes again, so it is analyzed after the
  // lock is released; the caller's reference keeps this session alive.
  if (final) return analysis_report_text(trace_);
  // Live snapshot: the repairs finalize would make (region bounds,
  // provenance-free finalize, salvage), applied to the copy.
  spool::IncrementalTrace::extend_region_to_records(copy);
  copy.finalize();
  salvage_trace(copy);
  if (!validate_trace(copy).empty()) return {};
  return analysis_report_text(copy);
}

}  // namespace gg::serve
