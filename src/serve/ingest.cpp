#include "serve/ingest.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"
#include "serve/server.hpp"

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

IngestMetrics::IngestMetrics(obs::Registry& registry)
    : streams_created(registry.counter("serve.ingest.streams_created")),
      resumes(registry.counter("serve.ingest.resumes")),
      offers_shed(registry.counter("serve.ingest.offers_shed")),
      poisoned_connections(
          registry.counter("serve.ingest.poisoned_connections")),
      read_timeouts(registry.counter("serve.ingest.read_timeouts")),
      epochs_applied(registry.counter("serve.ingest.epochs_applied")),
      epochs_duplicate(registry.counter("serve.ingest.epochs_duplicate")),
      streams_evicted(registry.counter("serve.ingest.streams_evicted")),
      open_streams(registry.gauge("serve.ingest.open_streams")),
      streams(registry.gauge("serve.ingest.streams")) {}

// --- IngestConnection -------------------------------------------------------

IngestConnection::IngestConnection(Server* server) : server_(server) {}

bool IngestConnection::fail(wire::Status status, const std::string& reason,
                            std::string* out) {
  const u64 acked = session_ ? session_->acked_seq() : 0;
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
      server_->options().ingest.max_wire_buffer_bytes) {
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
        if (const IngestMetrics* m = server_->ingest_metrics())
          m->poisoned_connections->add();
        return fail(wire::Status::BadProto, decoder_.error(), out);
      case wire::Decoder::Result::Frame:
        if (!on_frame(f, out, now_ns)) return false;
        break;
    }
  }
}

void IngestConnection::on_timeout(std::string* out) {
  if (!open_) return;
  if (const IngestMetrics* m = server_->ingest_metrics())
    m->read_timeouts->add();
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
    if (session_)
      return fail(wire::Status::BadProto, "second HELLO on connection", out);
    const Server::Hello h = server_->hello(hello.token, hello.name, now_ns);
    if (!h.session) {
      return fail(wire::Status::Shed,
                  "ingest session cap reached, retry later", out);
    }
    session_ = h.session;
    generation_ = session_->adopt();
    std::string msg = h.created ? "new" : "resumed";
    if (session_->finalized()) msg = "sealed";
    out->append(
        wire::encode_ack(wire::Status::Ok, session_->acked_seq(), msg));
    return true;
  }
  if (!session_)
    return fail(wire::Status::BadProto,
                std::string("frame before HELLO"), out);
  if (session_->generation() != generation_) {
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
      // The degrade ladder sheds brand-new streams as soon as it leaves
      // normal, before it ever pauses tailers; a stream that already holds
      // data is always admitted.
      if (!session_->offered() &&
          server_->admission().level() != DegradeLevel::Normal) {
        if (const IngestMetrics* m = server_->ingest_metrics())
          m->offers_shed->add();
        return fail(wire::Status::Shed,
                    "ingest shed under memory pressure, retry later", out);
      }
      const Session::Apply r = session_->offer(offer.num_workers, now_ns);
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
      const Session::Apply r = session_->apply_epoch(f.seq, epoch, now_ns);
      out->append(wire::encode_ack(r.status, r.acked_seq, r.message));
      if (r.status != wire::Status::Ok) {
        open_ = false;
        close_reason_ = r.message;
        return false;
      }
      if (const IngestMetrics* m = server_->ingest_metrics()) {
        if (r.message == "duplicate") {
          m->epochs_duplicate->add();
        } else {
          m->epochs_applied->add();
        }
      }
      return true;
    }
    case wire::Type::Seal: {
      wire::SealMsg seal;
      if (!wire::decode_seal(f.payload, &seal, &err))
        return fail(wire::Status::BadProto, err, out);
      const Session::Apply r = session_->seal(seal, now_ns);
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

IngestListener::IngestListener(std::string socket_path, Server* server)
    : path_(std::move(socket_path)), server_(server) {}

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
        server_->options().ingest.max_connections) {
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
  IngestConnection conn(server_);
  const u64 deadline_ns = server_->options().ingest.read_deadline_ns;
  u64 last_bytes_ns = server_->now_ns();
  char buf[64 * 1024];
  std::string out;
  while (!stop_.load(std::memory_order_acquire) && conn.open()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    const u64 now = server_->now_ns();
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
