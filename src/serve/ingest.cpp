#include "serve/ingest.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"
#include "serve/session.hpp"
#include "trace/record_schema.hpp"
#include "trace/salvage.hpp"
#include "trace/validate.hpp"

namespace gg::serve {

namespace {

bool send_all(int fd, const char* data, size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-ACK must surface as EPIPE,
    // never as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

const char* ingest_state_name(IngestState s) {
  switch (s) {
    case IngestState::Open: return "open";
    case IngestState::Sealed: return "sealed";
    case IngestState::Crashed: return "crashed";
    case IngestState::Failed: return "failed";
  }
  return "?";
}

// --- IngestStream -----------------------------------------------------------

IngestStream::IngestStream(u64 id, wire::Token token, std::string name,
                           u64 now_ns)
    : id_(id), token_(token), name_(std::move(name)) {
  last_activity_ns_ = now_ns;
}

u64 IngestStream::adopt() {
  return generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

u64 IngestStream::generation() const {
  return generation_.load(std::memory_order_acquire);
}

IngestStream::Apply IngestStream::offer(u32 num_workers, u64 now_ns) {
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

IngestStream::Apply IngestStream::apply_epoch(u32 seq,
                                              const wire::EpochMsg& msg,
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
    ++epochs_duplicate_;
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

IngestStream::Apply IngestStream::seal(const wire::SealMsg& msg, u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) {
    // Resume after a lost final ACK: the stream is already finalized with
    // exactly these bytes; just re-ACK so the client can finish.
    return {usable_ ? wire::Status::Ok : wire::Status::SessionErr, acked_seq_,
            usable_ ? "sealed" : "finalized unusable"};
  }
  if (!inc_)
    return {wire::Status::BadProto, acked_seq_, "SEAL before OFFER"};
  return finalize_locked(msg.end, msg.end_offset, msg.end_len, now_ns);
}

void IngestStream::finalize(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return;
  if (!inc_) {
    // Never offered: nothing was ever recoverable.
    finalized_ = true;
    usable_ = false;
    state_ = IngestState::Failed;
    last_activity_ns_ = now_ns;
    return;
  }
  finalize_locked(wire::EndKind::Clean, 0, 0, now_ns);
}

IngestStream::Apply IngestStream::finalize_locked(wire::EndKind end,
                                                  u64 end_offset, u64 end_len,
                                                  u64 now_ns) {
  finalized_ = true;
  last_activity_ns_ = now_ns;
  // Stamp the tail note batch recovery would stamp for the same final
  // bytes (wording pinned by the parity tests).
  inc_->note_tail(wire::tail_step(end), end_offset, end_len);
  usable_ = inc_->finish();
  report_ = inc_->report();
  if (!usable_) {
    state_ = IngestState::Failed;
    inc_.reset();
    return {wire::Status::SessionErr, acked_seq_, "nothing recoverable"};
  }
  trace_ = std::move(inc_->trace());
  inc_.reset();
  // The batch `gganalyze --recover` hand-off: degraded streams run the
  // salvage pass before analysis, clean ones are used as-is.
  if (report_.degraded()) salvage_trace(trace_);
  if (!validate_trace(trace_).empty()) {
    usable_ = false;
    state_ = IngestState::Failed;
    return {wire::Status::SessionErr, acked_seq_, "trace failed validation"};
  }
  state_ = report_.crash_reason.empty() ? IngestState::Sealed
                                        : IngestState::Crashed;
  return {wire::Status::Ok, acked_seq_, "sealed"};
}

bool IngestStream::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inc_ != nullptr || finalized_;
}

bool IngestStream::finalized() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finalized_;
}

bool IngestStream::usable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return usable_;
}

IngestState IngestStream::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

u64 IngestStream::acked_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_seq_;
}

u64 IngestStream::resident_locked() const {
  if (inc_) return inc_->resident_bytes();
  if (!usable_) return 0;
  return schema::record_bytes(trace_);
}

u64 IngestStream::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_locked();
}

u64 IngestStream::last_activity_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_activity_ns_;
}

u64 IngestStream::last_query_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_query_ns_;
}

void IngestStream::touch_query(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  last_query_ns_ = now_ns;
}

const spool::RecoverReport* IngestStream::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return &report_;
  if (inc_) return &inc_->report();
  return nullptr;
}

const Trace* IngestStream::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finalized_ && usable_ ? &trace_ : nullptr;
}

std::string IngestStream::status_line() const {
  std::lock_guard<std::mutex> lock(mu_);
  const spool::RecoverReport* rep =
      finalized_ ? &report_ : (inc_ ? &inc_->report() : nullptr);
  std::string line = "ingest " + std::to_string(id_) + " " +
                     (name_.empty() ? "(unnamed)" : name_) +
                     " token=" + token_.hex().substr(0, 12) + " " +
                     ingest_state_name(state_);
  line += " frames=" + std::to_string(rep ? rep->frames_kept : 0);
  u64 epochs = 0;
  if (rep != nullptr)
    for (u64 e : rep->epochs_per_worker) epochs += e;
  line += " epochs=" + std::to_string(epochs);
  line += " acked=" + std::to_string(acked_seq_);
  line += " resident=" + std::to_string(resident_locked());
  if (rep != nullptr && !rep->crash_reason.empty())
    line += " crash=\"" + rep->crash_reason + "\"";
  return line;
}

std::string IngestStream::report_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) {
    if (!usable_) return {};
    return analysis_report_text(trace_);
  }
  if (!inc_) return {};
  // Live snapshot, same convergence contract as Session::report_text.
  Trace copy = inc_->trace();
  spool::IncrementalTrace::extend_region_to_records(copy);
  copy.finalize();
  salvage_trace(copy);
  if (!validate_trace(copy).empty()) return {};
  return analysis_report_text(copy);
}

// --- IngestRegistry ---------------------------------------------------------

IngestRegistry::IngestRegistry(const IngestOptions& opts,
                               obs::Registry* telemetry)
    : opts_(opts) {
  if (telemetry != nullptr) {
    m_created_ = telemetry->counter("serve.ingest.streams_created");
    m_resumed_ = telemetry->counter("serve.ingest.resumes");
    m_shed_ = telemetry->counter("serve.ingest.offers_shed");
    m_poisoned_ = telemetry->counter("serve.ingest.poisoned_connections");
    m_timeouts_ = telemetry->counter("serve.ingest.read_timeouts");
    m_epochs_ = telemetry->counter("serve.ingest.epochs_applied");
    m_dup_epochs_ = telemetry->counter("serve.ingest.epochs_duplicate");
    m_evicted_ = telemetry->counter("serve.ingest.streams_evicted");
    g_open_ = telemetry->gauge("serve.ingest.open_streams");
    g_streams_ = telemetry->gauge("serve.ingest.streams");
  }
}

IngestRegistry::Hello IngestRegistry::hello(const wire::Token& token,
                                            const std::string& name,
                                            u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(token);
  if (it != streams_.end()) {
    if (m_resumed_ != nullptr) m_resumed_->add();
    return {it->second, /*created=*/false};
  }
  size_t open = 0;
  for (const auto& [tok, stream] : streams_)
    if (!stream->finalized()) ++open;
  if (open >= opts_.max_sessions) {
    if (m_shed_ != nullptr) m_shed_->add();
    return {nullptr, false};
  }
  auto stream =
      std::make_shared<IngestStream>(next_id_++, token, name, now_ns);
  streams_.emplace(token, stream);
  if (m_created_ != nullptr) m_created_->add();
  if (g_streams_ != nullptr) g_streams_->set(streams_.size());
  if (g_open_ != nullptr) g_open_->set(open + 1);
  return {stream, /*created=*/true};
}

std::shared_ptr<IngestStream> IngestRegistry::find(
    const wire::Token& token) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(token);
  return it == streams_.end() ? nullptr : it->second;
}

std::shared_ptr<IngestStream> IngestRegistry::find_by_key(
    const std::string& key) const {
  if (key.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<IngestStream> match;
  bool ambiguous = false;
  for (const auto& [tok, stream] : streams_) {
    const bool hit =
        std::to_string(stream->id()) == key || stream->name() == key ||
        (key.size() >= 6 && tok.hex().compare(0, key.size(), key) == 0);
    if (!hit) continue;
    if (match) ambiguous = true;
    match = stream;
  }
  return ambiguous ? nullptr : match;
}

void IngestRegistry::sweep(u64 now_ns) {
  std::vector<std::shared_ptr<IngestStream>> stale;
  std::vector<wire::Token> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tok, stream] : streams_) {
      // Connection threads stamp activity with their own clock reads, which
      // may be fractionally ahead of this sweep's captured now; the guarded
      // comparison keeps the subtraction from underflowing into "stale for
      // eons" and finalizing a stream that was touched microseconds ago.
      if (!stream->finalized()) {
        const u64 last = stream->last_activity_ns();
        if (now_ns > last && now_ns - last >= opts_.stale_after_ns)
          stale.push_back(stream);
        continue;
      }
      const u64 idle_since =
          std::max(stream->last_activity_ns(), stream->last_query_ns());
      if (now_ns > idle_since && now_ns - idle_since >= opts_.evict_after_ns)
        expired.push_back(tok);
    }
    for (const auto& tok : expired) {
      streams_.erase(tok);
      if (m_evicted_ != nullptr) m_evicted_->add();
    }
    if (g_streams_ != nullptr) g_streams_->set(streams_.size());
  }
  // Finalize outside the table lock: finish() + salvage can be heavy.
  for (auto& stream : stale) stream->finalize(now_ns);
  if (g_open_ != nullptr) g_open_->set(open_count());
}

void IngestRegistry::finalize_all(u64 now_ns) {
  std::vector<std::shared_ptr<IngestStream>> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tok, stream] : streams_)
      if (!stream->finalized()) open.push_back(stream);
  }
  for (auto& stream : open) stream->finalize(now_ns);
  if (g_open_ != nullptr) g_open_->set(0);
}

u64 IngestRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 total = 0;
  for (const auto& [tok, stream] : streams_)
    total += stream->resident_bytes();
  return total;
}

size_t IngestRegistry::stream_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streams_.size();
}

size_t IngestRegistry::open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t open = 0;
  for (const auto& [tok, stream] : streams_)
    if (!stream->finalized()) ++open;
  return open;
}

void IngestRegistry::for_each(
    const std::function<void(const IngestStream&)>& fn) const {
  std::vector<std::shared_ptr<IngestStream>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(streams_.size());
    for (const auto& [tok, stream] : streams_) snapshot.push_back(stream);
  }
  for (const auto& stream : snapshot) fn(*stream);
}

void IngestRegistry::note_resumed() {
  if (m_resumed_ != nullptr) m_resumed_->add();
}
void IngestRegistry::note_shed() {
  if (m_shed_ != nullptr) m_shed_->add();
}
void IngestRegistry::note_poisoned() {
  if (m_poisoned_ != nullptr) m_poisoned_->add();
}
void IngestRegistry::note_timeout() {
  if (m_timeouts_ != nullptr) m_timeouts_->add();
}
void IngestRegistry::note_epoch_applied() {
  if (m_epochs_ != nullptr) m_epochs_->add();
}
void IngestRegistry::note_epoch_duplicate() {
  if (m_dup_epochs_ != nullptr) m_dup_epochs_->add();
}

// --- IngestConnection -------------------------------------------------------

IngestConnection::IngestConnection(IngestRegistry* registry,
                                   std::function<bool()> admit_offer)
    : registry_(registry), admit_offer_(std::move(admit_offer)) {}

bool IngestConnection::fail(wire::Status status, const std::string& reason,
                            std::string* out) {
  const u64 acked = stream_ ? stream_->acked_seq() : 0;
  out->append(wire::encode_ack(status, acked, reason));
  open_ = false;
  close_reason_ = reason;
  return false;
}

bool IngestConnection::on_bytes(std::string_view bytes, std::string* out,
                                u64 now_ns) {
  if (!open_) return false;
  decoder_.feed(bytes);
  if (decoder_.buffered_bytes() >
      registry_->options().max_wire_buffer_bytes) {
    return fail(wire::Status::SessionErr,
                "wire buffer cap exceeded (" +
                    std::to_string(decoder_.buffered_bytes()) + " bytes)",
                out);
  }
  wire::Frame f;
  while (true) {
    switch (decoder_.next(&f)) {
      case wire::Decoder::Result::Need:
        return true;
      case wire::Decoder::Result::Poison:
        // Wire damage kills the connection, never the stream: the client
        // reconnects and resumes from the last acked epoch.
        registry_->note_poisoned();
        return fail(wire::Status::BadProto, decoder_.error(), out);
      case wire::Decoder::Result::Frame:
        if (!on_frame(f, out, now_ns)) return false;
        break;
    }
  }
}

void IngestConnection::on_timeout(std::string* out) {
  if (!open_) return;
  registry_->note_timeout();
  fail(wire::Status::SessionErr, "read timeout", out);
}

bool IngestConnection::on_frame(const wire::Frame& f, std::string* out,
                                u64 now_ns) {
  std::string err;
  if (f.type == wire::Type::Hello) {
    wire::HelloMsg hello;
    if (!wire::decode_hello(f.payload, &hello, &err))
      return fail(wire::Status::BadProto, err, out);
    if (hello.proto != wire::kProtoVersion) {
      return fail(wire::Status::BadProto,
                  "unsupported protocol version " +
                      std::to_string(hello.proto),
                  out);
    }
    if (hello.token.zero())
      return fail(wire::Status::BadProto, "HELLO with zero token", out);
    if (stream_)
      return fail(wire::Status::BadProto, "second HELLO on connection", out);
    const IngestRegistry::Hello h =
        registry_->hello(hello.token, hello.name, now_ns);
    if (!h.stream) {
      return fail(wire::Status::Shed,
                  "ingest session cap reached, retry later", out);
    }
    stream_ = h.stream;
    generation_ = stream_->adopt();
    std::string msg = h.created ? "new" : "resumed";
    if (stream_->finalized()) msg = "sealed";
    out->append(
        wire::encode_ack(wire::Status::Ok, stream_->acked_seq(), msg));
    return true;
  }
  if (!stream_)
    return fail(wire::Status::BadProto,
                std::string("frame before HELLO"), out);
  if (stream_->generation() != generation_) {
    // A newer connection re-HELLOed with our token; this one is a zombie
    // (the client gave up on it). Stand down without touching the stream.
    open_ = false;
    close_reason_ = "superseded by a newer connection";
    return false;
  }
  switch (f.type) {
    case wire::Type::Offer: {
      wire::OfferMsg offer;
      if (!wire::decode_offer(f.payload, &offer, &err))
        return fail(wire::Status::BadProto, err, out);
      // The degrade ladder sheds brand-new streams before it ever pauses
      // tailers; a stream that already holds data is always admitted.
      if (!stream_->offered() && admit_offer_ && !admit_offer_()) {
        registry_->note_shed();
        return fail(wire::Status::Shed,
                    "ingest shed under memory pressure, retry later", out);
      }
      const IngestStream::Apply r = stream_->offer(offer.num_workers, now_ns);
      out->append(wire::encode_ack(r.status, r.acked_seq, r.message));
      if (r.status != wire::Status::Ok) {
        open_ = false;
        close_reason_ = r.message;
        return false;
      }
      return true;
    }
    case wire::Type::Epoch: {
      wire::EpochMsg epoch;
      if (!wire::decode_epoch(f.payload, &epoch, &err))
        return fail(wire::Status::BadProto, err, out);
      const IngestStream::Apply r =
          stream_->apply_epoch(f.seq, epoch, now_ns);
      out->append(wire::encode_ack(r.status, r.acked_seq, r.message));
      if (r.status != wire::Status::Ok) {
        open_ = false;
        close_reason_ = r.message;
        return false;
      }
      if (r.message == "duplicate") {
        registry_->note_epoch_duplicate();
      } else {
        registry_->note_epoch_applied();
      }
      return true;
    }
    case wire::Type::Seal: {
      wire::SealMsg seal;
      if (!wire::decode_seal(f.payload, &seal, &err))
        return fail(wire::Status::BadProto, err, out);
      const IngestStream::Apply r = stream_->seal(seal, now_ns);
      out->append(wire::encode_ack(r.status, r.acked_seq, r.message));
      if (r.status != wire::Status::Ok) {
        open_ = false;
        close_reason_ = r.message;
        return false;
      }
      return true;
    }
    case wire::Type::Bye:
      open_ = false;
      close_reason_ = "bye";
      return false;
    case wire::Type::Hello:
    case wire::Type::Ack:
      break;
  }
  return fail(wire::Status::BadProto,
              "unexpected frame type from client", out);
}

// --- IngestListener ---------------------------------------------------------

IngestListener::IngestListener(std::string socket_path,
                               IngestRegistry* registry,
                               std::function<bool()> admit_offer,
                               std::function<u64()> clock)
    : path_(std::move(socket_path)),
      registry_(registry),
      admit_offer_(std::move(admit_offer)),
      clock_(std::move(clock)) {}

IngestListener::~IngestListener() { stop(); }

bool IngestListener::start(std::string* error) {
  sockaddr_un addr;
  if (path_.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "socket path too long: " + path_;
    return false;
  }
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  ::unlink(path_.c_str());  // a stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr)
      *error = "cannot bind " + path_ + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void IngestListener::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  // Connection threads watch stop_ on every poll round; wait them out.
  while (active_.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(path_.c_str());
}

void IngestListener::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (active_.load(std::memory_order_acquire) >=
        registry_->options().max_connections) {
      // Transport-level shed: refuse before any protocol state exists.
      const std::string ack = wire::encode_ack(
          wire::Status::Shed, 0, "connection cap reached, retry later");
      send_all(fd, ack.data(), ack.size());
      ::close(fd);
      continue;
    }
    active_.fetch_add(1, std::memory_order_acq_rel);
    std::thread([this, fd] {
      serve_connection(fd);
      active_.fetch_sub(1, std::memory_order_acq_rel);
    }).detach();
  }
}

void IngestListener::serve_connection(int fd) {
  IngestConnection conn(registry_, admit_offer_);
  const u64 deadline_ns = registry_->options().read_deadline_ns;
  u64 last_bytes_ns = clock_();
  char buf[64 * 1024];
  std::string out;
  while (!stop_.load(std::memory_order_acquire) && conn.open()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    const u64 now = clock_();
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (now - last_bytes_ns >= deadline_ns) {
        out.clear();
        conn.on_timeout(&out);
        send_all(fd, out.data(), out.size());
        break;
      }
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer closed; the stream survives for resume
    last_bytes_ns = now;
    out.clear();
    const bool keep =
        conn.on_bytes(std::string_view(buf, static_cast<size_t>(n)), &out,
                      now);
    if (!out.empty() && !send_all(fd, out.data(), out.size())) break;
    if (!keep) break;
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

}  // namespace gg::serve
