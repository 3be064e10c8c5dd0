#include "serve/server.hpp"

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/endpoint.hpp"

namespace gg::serve {

namespace {

bool has_spool_suffix(const std::string& name) {
  static constexpr const char kSuffix[] = ".ggspool";
  static constexpr size_t kSuffixLen = sizeof kSuffix - 1;
  return name.size() > kSuffixLen &&
         name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0;
}

std::string first_word(const std::string& line, std::string* rest) {
  size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    rest->clear();
    return line;
  }
  std::string word = line.substr(0, sp);
  while (sp < line.size() && line[sp] == ' ') ++sp;
  *rest = line.substr(sp);
  while (!rest->empty() && rest->back() == ' ') rest->pop_back();
  return word;
}

}  // namespace

Server::Server(const ServerOptions& opts)
    : opts_(opts), admission_(opts.admission, opts.telemetry) {
  if (opts_.telemetry != nullptr) {
    m_ticks_ = opts_.telemetry->counter("serve.ticks");
    m_frames_ = opts_.telemetry->counter("serve.frames_applied");
    m_attached_ = opts_.telemetry->counter("serve.sessions_attached");
    m_stalls_ = opts_.telemetry->counter("serve.watchdog_stalls");
    ingest_metrics_ = std::make_unique<IngestMetrics>(*opts_.telemetry);
  }
}

Server::~Server() {
  stop();
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  if (ingest_listener_) ingest_listener_->stop();
  if (endpoint_) endpoint_->stop();
}

u64 Server::now_ns() const {
  return opts_.clock ? opts_.clock() : obs::mono_ns();
}

bool Server::add_file_locked(const std::string& path) {
  for (const auto& [id, s] : sessions_)
    if (s->path() == path) return false;
  sessions_.emplace(next_id_, std::make_shared<Session>(next_id_, path,
                                                        opts_.session));
  ++next_id_;
  ever_attached_ = true;
  if (m_attached_ != nullptr) m_attached_->add();
  return true;
}

bool Server::attach(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return add_file_locked(path);
}

Server::Hello Server::hello(const wire::Token& token, const std::string& name,
                            u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, s] : sessions_) {
    if (s->token() == token) {
      if (ingest_metrics_) ingest_metrics_->resumes->add();
      return {s, /*created=*/false};
    }
  }
  if (wire_counts_locked().second >= opts_.ingest.max_sessions) {
    if (ingest_metrics_) ingest_metrics_->offers_shed->add();
    return {};
  }
  auto s = std::make_shared<Session>(next_id_, token, name,
                                     opts_.ingest.stale_after_ns, now_ns);
  sessions_.emplace(next_id_++, s);
  ever_attached_ = true;
  if (ingest_metrics_) ingest_metrics_->streams_created->add();
  return {s, /*created=*/true};
}

std::shared_ptr<Session> Server::find(const std::string& key) const {
  if (key.empty()) return nullptr;
  const auto basename_or_name = [](const Session& s) {
    if (s.wire()) return s.name();
    return s.path().substr(s.path().find_last_of('/') + 1);
  };
  // SESSIONS prints absolute paths, but a human types "w1.ggspool", an id,
  // a client name or the start of a token.
  const std::function<bool(const Session&)> steps[] = {
      [&](const Session& s) { return s.path() == key; },
      [&](const Session& s) { return std::to_string(s.id()) == key; },
      [&](const Session& s) { return basename_or_name(s) == key; },
      [&](const Session& s) {
        return key.size() >= 6 && s.wire() &&
               s.token().hex().compare(0, key.size(), key) == 0;
      },
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& matches : steps) {
    std::shared_ptr<Session> hit;
    for (const auto& [id, s] : sessions_) {
      if (!matches(*s)) continue;
      if (hit) return nullptr;  // ambiguous: require a sharper key
      hit = s;
    }
    if (hit) return hit;
  }
  return nullptr;
}

void Server::scan_dir_locked(u64 now) {
  if (opts_.dir.empty() || now < next_scan_ns_) return;
  next_scan_ns_ = now + opts_.scan_interval_ns;
  DIR* dir = ::opendir(opts_.dir.c_str());
  if (dir == nullptr) return;
  while (dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (has_spool_suffix(name)) add_file_locked(opts_.dir + "/" + name);
  }
  ::closedir(dir);
}

std::vector<std::shared_ptr<Session>> Server::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Session>> all;
  all.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) all.push_back(s);
  return all;
}

void Server::tick() {
  const u64 now = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    scan_dir_locked(now);
  }
  // Sessions tick outside the table lock: a HELLO or a query lookup never
  // waits for a poll or a finalize.
  const std::vector<std::shared_ptr<Session>> all = snapshot();
  size_t frames = 0;
  u64 resident = 0;
  for (const auto& s : all) {
    frames += s->tick(now);
    resident += s->resident_bytes();
  }
  admission_.update(resident, all.size());
  apply_backpressure(all, now);
  evict_sweep(all, now);

  heartbeat_.fetch_add(1, std::memory_order_release);
  if (m_ticks_ != nullptr) m_ticks_->add();
  if (m_frames_ != nullptr && frames > 0)
    m_frames_->add(static_cast<u64>(frames));
}

void Server::apply_backpressure(
    const std::vector<std::shared_ptr<Session>>& all, u64 now) {
  if (!admission_.should_pause_tailers()) {
    // Pressure relieved: resume everything we paused.
    for (const auto& s : all)
      if (s->resume(now)) admission_.note_resumed();
    return;
  }
  // Pause the biggest live tailers, but always keep the smallest one live
  // so ingestion as a whole cannot deadlock against the budget. Wire
  // sessions are never paused: their OFFERs were shed instead.
  std::vector<std::pair<u64, Session*>> live;
  for (const auto& s : all)
    if (s->tailing()) live.emplace_back(s->resident_bytes(), s.get());
  if (live.size() <= 1) return;
  const auto keep = std::min_element(live.begin(), live.end());
  for (auto it = live.begin(); it != live.end(); ++it)
    if (it != keep && it->second->pause(now)) admission_.note_paused();
}

void Server::evict_sweep(const std::vector<std::shared_ptr<Session>>& all,
                         u64 now) {
  // Finalized sessions only, least recently used first. They are read
  // before the table lock is taken, so a HELLO never waits on a session.
  // Query threads stamp their own clock reads, which may be fractionally
  // ahead of this sweep's `now`; the guarded comparison keeps the
  // subtraction from underflowing.
  std::vector<std::pair<u64, u64>> done;  // (idle ns, id)
  for (const auto& s : all) {
    if (!s->finalized()) continue;
    const u64 since = s->idle_since_ns();
    done.emplace_back(now > since ? now - since : 0, s->id());
  }
  std::sort(done.begin(), done.end(), std::greater<>());
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [idle, id] : done) {
    // Nobody queried it for evict_after_ns, or the budget is still
    // exceeded: evict.
    if (idle < opts_.session.evict_after_ns && !admission_.over_budget())
      break;
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) evict_locked(it);
  }
  if (ingest_metrics_) {
    // Published once per tick, like every other serve.* gauge.
    const auto [streams, open] = wire_counts_locked();
    ingest_metrics_->streams->set(static_cast<double>(streams));
    ingest_metrics_->open_streams->set(static_cast<double>(open));
  }
}

void Server::evict_locked(Table::iterator it) {
  const u64 resident = admission_.resident_bytes();
  const u64 freed = it->second->resident_bytes();
  if (it->second->wire() && ingest_metrics_)
    ingest_metrics_->streams_evicted->add();
  sessions_.erase(it);
  admission_.note_evicted();
  admission_.update(resident > freed ? resident - freed : 0,
                    sessions_.size());
}

std::pair<size_t, size_t> Server::wire_counts_locked() const {
  size_t streams = 0, open = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s->wire()) continue;
    ++streams;
    if (!s->finalized()) ++open;
  }
  return {streams, open};
}

std::string Server::status_locked() const {
  const auto [streams, open] = wire_counts_locked();
  std::ostringstream os;
  os << "ggserved sessions=" << sessions_.size()
     << " resident=" << admission_.resident_bytes() << "/"
     << admission_.budget_bytes()
     << " level=" << degrade_level_name(admission_.level())
     << " ticks=" << heartbeat_.load(std::memory_order_relaxed)
     << " shed=" << admission_.queries_shed()
     << " paused=" << admission_.tailers_paused()
     << " evicted=" << admission_.sessions_evicted()
     << " stalls=" << watchdog_stalls_.load(std::memory_order_relaxed)
     << " ingest_streams=" << streams << " ingest_open=" << open << "\n";
  return os.str();
}

std::string Server::query(const std::string& request) {
  std::string rest;
  const std::string cmd = first_word(request, &rest);
  const u64 now = now_ns();

  if (cmd == "PING") return "PONG\n";
  if (cmd == "SHUTDOWN") {
    stop();
    return "OK shutting down\n";
  }
  if (cmd == "STATUS") {
    std::lock_guard<std::mutex> lock(mu_);
    return status_locked();
  }
  if (cmd == "SESSIONS") {
    std::string out;
    for (const auto& s : snapshot()) out += s->status_line() + "\n";
    if (out.empty()) out = "no sessions\n";
    return out;
  }
  if (cmd == "SUMMARY" || cmd == "REPORT" || cmd == "EVICT") {
    const std::shared_ptr<Session> s = find(rest);
    if (s == nullptr) return "ERR no such session: " + rest + "\n";
    if (cmd == "EVICT") {
      s->finalize(now);
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sessions_.find(s->id());
        if (it != sessions_.end()) evict_locked(it);
      }
      return "OK evicted " + (s->wire() ? s->name() : s->path()) + "\n";
    }
    s->touch_query(now);
    if (cmd == "SUMMARY") return s->summary();
    if (!admission_.admit_heavy_query()) {
      return "SHED report refused under memory pressure (level=" +
             std::string(degrade_level_name(admission_.level())) +
             ", resident=" + std::to_string(admission_.resident_bytes()) +
             "/" + std::to_string(admission_.budget_bytes()) +
             "); retry later or use SUMMARY\n";
    }
    std::string text = s->report_text();
    if (text.empty()) return "ERR session not usable\n";
    return text;
  }
  if (cmd == "TELEMETRY") {
    if (opts_.telemetry == nullptr) return "no telemetry\n";
    const obs::MetricsSnapshot snap = opts_.telemetry->snapshot();
    if (rest == "PROM") return obs::render_prometheus(snap);
    if (rest == "JSON") return obs::render_json(snap);
    std::ostringstream os;
    obs::render_text(os, snap);
    return os.str();
  }
  if (cmd == "ATTACH") {
    if (rest.empty()) return "ERR ATTACH <path>\n";
    std::lock_guard<std::mutex> lock(mu_);
    if (!add_file_locked(rest)) return "OK already attached\n";
    return "OK attached " + rest + "\n";
  }
  return "ERR unknown command: " + cmd + "\n";
}

size_t Server::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool Server::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ever_attached_) return false;
  for (const auto& [id, s] : sessions_)
    if (!s->finalized()) return false;
  return true;
}

void Server::for_each_session(
    const std::function<void(const Session&)>& fn) const {
  for (const auto& s : snapshot()) fn(*s);
}

std::string Server::diagnosis() const {
  // try_lock, on the table and on each session: the watchdog calls this
  // precisely when the supervision loop may be wedged holding one of them
  // — a diagnosis that deadlocks is no diagnosis.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  std::ostringstream os;
  os << "=== ggserved stall diagnosis ===\n";
  os << "heartbeat=" << heartbeat_.load(std::memory_order_relaxed)
     << " stalls=" << watchdog_stalls_.load(std::memory_order_relaxed)
     << " stopping=" << (stopping() ? 1 : 0) << "\n";
  if (!lock.owns_lock()) {
    os << "session table locked (the supervision loop holds the mutex); "
          "per-session state unavailable\n";
    return os.str();
  }
  os << status_locked();
  for (const auto& [id, s] : sessions_) {
    const std::string line = s->status_line(/*wait=*/false);
    if (line.empty()) {
      os << "  session " << id << " busy (its lock is held)\n";
    } else {
      os << "  " << line << "\n";
    }
  }
  return os.str();
}

void Server::watchdog_main() {
  // The watchdog observes real time regardless of an injected test clock:
  // a wedged ingest loop cannot advance a fake clock, and the whole point
  // is catching the loop when it stops making progress.
  u64 last_beat = heartbeat_.load(std::memory_order_acquire);
  u64 last_change_ns = obs::mono_ns();
  bool stalled = false;
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(opts_.watchdog_poll_ns));
    const u64 beat = heartbeat_.load(std::memory_order_acquire);
    const u64 now = obs::mono_ns();
    if (beat != last_beat) {
      last_beat = beat;
      last_change_ns = now;
      stalled = false;
      continue;
    }
    if (stalled || now - last_change_ns < opts_.watchdog_stall_ns) continue;
    stalled = true;  // rearm only after the next heartbeat
    watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
    if (m_stalls_ != nullptr) m_stalls_->add();
    const std::string report = diagnosis();
    std::fwrite(report.data(), 1, report.size(), stderr);
    std::fflush(stderr);
    if (opts_.on_stall) opts_.on_stall(report);
  }
}

void Server::finalize_all() {
  const u64 now = now_ns();
  const std::vector<std::shared_ptr<Session>> all = snapshot();
  u64 resident = 0;
  for (const auto& s : all) {
    s->finalize(now);
    resident += s->resident_bytes();
  }
  admission_.update(resident, all.size());
}

int Server::run() {
  watchdog_stop_.store(false, std::memory_order_release);
  watchdog_ = std::thread([this] { watchdog_main(); });

  if (!opts_.socket_path.empty()) {
    endpoint_ = std::make_unique<Endpoint>(
        opts_.socket_path,
        [this](const std::string& req) { return query(req); },
        opts_.query_read_deadline_ns);
    std::string err;
    if (!endpoint_->start(&err)) {
      std::fprintf(stderr, "ggserved: endpoint failed: %s\n", err.c_str());
      endpoint_.reset();
      watchdog_stop_.store(true, std::memory_order_release);
      watchdog_.join();
      return 1;
    }
  }

  if (!opts_.ingest_socket_path.empty()) {
    ingest_listener_ =
        std::make_unique<IngestListener>(opts_.ingest_socket_path, this);
    std::string err;
    if (!ingest_listener_->start(&err)) {
      std::fprintf(stderr, "ggserved: ingest listener failed: %s\n",
                   err.c_str());
      ingest_listener_.reset();
      if (endpoint_) {
        endpoint_->stop();
        endpoint_.reset();
      }
      watchdog_stop_.store(true, std::memory_order_release);
      watchdog_.join();
      return 1;
    }
  }

  while (!stopping()) {
    tick();
    if (opts_.exit_when_idle && idle()) break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(opts_.tick_sleep_ns));
  }

  if (ingest_listener_) {
    ingest_listener_->stop();
    ingest_listener_.reset();
  }
  finalize_all();
  if (endpoint_) {
    endpoint_->stop();
    endpoint_.reset();
  }
  watchdog_stop_.store(true, std::memory_order_release);
  watchdog_.join();
  return 0;
}

}  // namespace gg::serve
