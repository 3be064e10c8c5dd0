#include "serve/session.hpp"

#include <optional>

#include "analysis/report.hpp"
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
    case SessionState::Tailing: return "tailing";
    case SessionState::Sealed: return "sealed";
    case SessionState::Crashed: return "crashed";
    case SessionState::Stale: return "stale";
    case SessionState::Failed: return "failed";
  }
  return "?";
}

bool recovery_degraded(const spool::RecoverReport& rep) {
  return rep.partial() || rep.frames_corrupt > 0 ||
         rep.frames_out_of_order > 0 || rep.epoch_gaps > 0 || rep.torn_tail;
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
      opts_(opts),
      tailer_(std::move(path), opts.tailer) {}

u64 Session::resident_bytes() const {
  if (finalized_) return schema::record_bytes(trace_);
  return tailer_.resident_bytes();
}

const spool::RecoverReport* Session::report() const {
  if (finalized_) return &report_;
  if (const spool::IncrementalTrace* inc = tailer_.trace())
    return &inc->report();
  return nullptr;
}

size_t Session::tick(u64 now_ns) {
  if (finalized_) return 0;
  if (last_activity_ns_ == 0) last_activity_ns_ = now_ns;
  if (paused_) return 0;
  const u64 size_before = tailer_.file_size();
  const size_t applied = tailer_.poll(now_ns);
  if (applied > 0 || tailer_.file_size() != size_before)
    last_activity_ns_ = now_ns;
  switch (tailer_.state()) {
    case TailState::Sealed:
      run_finalize(now_ns, SessionState::Sealed);
      break;
    case TailState::Crashed:
      // Crash footer: the writer's emergency flush got through. Hand the
      // stream to recovery immediately — nothing more will ever arrive.
      run_finalize(now_ns, SessionState::Crashed);
      break;
    case TailState::Failed:
      run_finalize(now_ns, SessionState::Failed);
      break;
    default:
      if (now_ns - last_activity_ns_ >= opts_.stale_after_ns) {
        // Footer-less writer death: no growth, no footer, deadline passed.
        run_finalize(now_ns, SessionState::Stale);
      }
      break;
  }
  return applied;
}

void Session::pause(u64 now_ns) {
  if (paused_ || finalized_) return;
  paused_ = true;
  // Pausing must not feed the staleness clock: a paused session's writer
  // may be perfectly alive.
  last_activity_ns_ = now_ns;
}

void Session::resume(u64 now_ns) {
  if (!paused_) return;
  paused_ = false;
  last_activity_ns_ = now_ns;
}

void Session::finalize(u64 now_ns) {
  if (finalized_) return;
  SessionState end = SessionState::Stale;
  switch (tailer_.state()) {
    case TailState::Sealed: end = SessionState::Sealed; break;
    case TailState::Crashed: end = SessionState::Crashed; break;
    case TailState::Failed: end = SessionState::Failed; break;
    default: break;
  }
  run_finalize(now_ns, end);
}

void Session::run_finalize(u64 now_ns, SessionState end_state) {
  if (finalized_) return;
  finalized_ = true;
  last_activity_ns_ = now_ns;
  usable_ = tailer_.finalize();
  if (const spool::IncrementalTrace* inc = tailer_.trace())
    report_ = inc->report();
  if (!usable_) {
    state_ = SessionState::Failed;
    return;
  }
  // A crash footer ends the stream in TailState::Crashed even when a stale
  // deadline triggered the finalize; the footer is the better diagnosis.
  if (!report_.crash_reason.empty() && end_state == SessionState::Stale)
    end_state = SessionState::Crashed;
  trace_ = std::move(tailer_.trace()->trace());
  // The batch `gganalyze --recover` hand-off: degraded streams run the
  // salvage pass before analysis, clean ones are used as-is.
  if (recovery_degraded(report_)) salvage_trace(trace_);
  if (!validate_trace(trace_).empty()) {
    usable_ = false;
    state_ = SessionState::Failed;
    return;
  }
  state_ = end_state;
}

std::string Session::status_line() const {
  const spool::RecoverReport* rep = report();
  std::string line = "session " + std::to_string(id_) + " " + path_ + " " +
                     session_state_name(state_);
  if (paused_) line += " (paused)";
  line += " frames=" + std::to_string(rep ? rep->frames_kept : 0);
  u64 epochs = 0;
  if (rep != nullptr)
    for (u64 e : rep->epochs_per_worker) epochs += e;
  line += " epochs=" + std::to_string(epochs);
  line += " resident=" + std::to_string(resident_bytes());
  if (rep != nullptr && !rep->crash_reason.empty())
    line += " crash=\"" + rep->crash_reason + "\"";
  return line;
}

std::string Session::report_text() const {
  if (finalized_) {
    if (!usable_) return {};
    return analysis_report_text(trace_);
  }
  const spool::IncrementalTrace* inc = tailer_.trace();
  if (inc == nullptr) return {};
  // Live snapshot: copy the accumulating records, apply the same repairs
  // finalize would (region bounds, provenance-free finalize, salvage), and
  // analyze the copy. The live answer converges on the finalized one as
  // the tail catches up.
  Trace copy = inc->trace();
  spool::IncrementalTrace::extend_region_to_records(copy);
  copy.finalize();
  salvage_trace(copy);
  if (!validate_trace(copy).empty()) return {};
  return analysis_report_text(copy);
}

}  // namespace gg::serve
