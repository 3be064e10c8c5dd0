#include "serve/wire_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/prng.hpp"
#include "obs/span.hpp"

namespace gg::serve {

namespace {

bool raw_send_all(int fd, const char* data, size_t len) {
  while (len > 0) {
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

WireClient::WireClient(const WireClientOptions& opts) : opts_(opts) {
  u64 seed = opts_.seed;
  if (seed == 0) {
    // Production path: a unique, non-reproducible token per client.
    seed = mix64(static_cast<u64>(::getpid())) ^ obs::mono_ns();
  }
  SplitMix64 sm(seed);
  token_.hi = sm.next();
  token_.lo = sm.next();
  if (token_.zero()) token_.lo = 1;
  jitter_state_ = sm.next();
}

WireClient::~WireClient() { close_fd(); }

void WireClient::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  hello_done_ = false;
  offer_done_ = false;
  ack_decoder_ = wire::Decoder{};
}

void WireClient::backoff_sleep(u32 attempt) {
  u64 ns = opts_.backoff_initial_ns;
  for (u32 i = 0; i < attempt && ns < opts_.backoff_max_ns; ++i) ns *= 2;
  ns = std::min(ns, opts_.backoff_max_ns);
  // Half fixed, half jitter: a fleet of clients retrying a restarting
  // daemon must not arrive in lockstep.
  SplitMix64 sm(jitter_state_);
  jitter_state_ = sm.next();
  const u64 sleep_ns = ns / 2 + (jitter_state_ % (ns / 2 + 1));
  std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
}

bool WireClient::send_bytes(const std::string& bytes, u32 seq,
                            bool is_epoch) {
  if (fd_ < 0) return false;
  const fault::WireFaultPlan* plan = opts_.fault;
  const bool match = plan != nullptr && plan->enabled() && is_epoch &&
                     faults_injected_ < plan->repeat &&
                     (plan->target_seq == 0 || seq == plan->target_seq);
  if (!match) return raw_send_all(fd_, bytes.data(), bytes.size());

  SplitMix64 rng(plan->seed + faults_injected_);
  ++faults_injected_;
  switch (plan->kind) {
    case fault::WireFaultPlan::Kind::None:
      return raw_send_all(fd_, bytes.data(), bytes.size());
    case fault::WireFaultPlan::Kind::ResetAtFrame:
      // The connection dies before the frame leaves; the frame stays in
      // the unacked window and rides the next retransmit.
      close_fd();
      return false;
    case fault::WireFaultPlan::Kind::ResetMidFrame: {
      const size_t keep = 1 + rng.next() % (bytes.size() - 1);
      raw_send_all(fd_, bytes.data(), keep);
      close_fd();
      return false;
    }
    case fault::WireFaultPlan::Kind::PartialWrite: {
      size_t off = 0;
      while (off < bytes.size()) {
        const size_t slice =
            std::min<size_t>(1 + rng.next() % 7, bytes.size() - off);
        if (!raw_send_all(fd_, bytes.data() + off, slice)) return false;
        off += slice;
      }
      return true;
    }
    case fault::WireFaultPlan::Kind::DuplicateFrame:
      return raw_send_all(fd_, bytes.data(), bytes.size()) &&
             raw_send_all(fd_, bytes.data(), bytes.size());
    case fault::WireFaultPlan::Kind::BitFlip: {
      std::string damaged = bytes;
      const size_t byte = rng.next() % damaged.size();
      damaged[byte] = static_cast<char>(
          static_cast<u8>(damaged[byte]) ^ (1u << (rng.next() % 8)));
      return raw_send_all(fd_, damaged.data(), damaged.size());
    }
    case fault::WireFaultPlan::Kind::Slowloris: {
      const size_t keep = 1 + rng.next() % (bytes.size() - 1);
      if (!raw_send_all(fd_, bytes.data(), keep)) return false;
      const u64 stall =
          plan->stall_ns != 0 ? plan->stall_ns : 200'000'000ull;
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
      return raw_send_all(fd_, bytes.data() + keep, bytes.size() - keep);
    }
    case fault::WireFaultPlan::Kind::GarbagePreamble: {
      std::string garbage(plan->garbage_bytes, '\0');
      for (char& c : garbage) c = static_cast<char>(rng.next() & 0xff);
      if (!raw_send_all(fd_, garbage.data(), garbage.size())) return false;
      return raw_send_all(fd_, bytes.data(), bytes.size());
    }
  }
  return false;
}

bool WireClient::read_ack(wire::AckMsg* ack, u64 deadline_ns) {
  const u64 start = obs::mono_ns();
  char buf[16 * 1024];
  while (true) {
    wire::Frame f;
    switch (ack_decoder_.next(&f)) {
      case wire::Decoder::Result::Frame: {
        std::string err;
        if (f.type != wire::Type::Ack ||
            !wire::decode_ack(f.payload, ack, &err))
          return false;
        return true;
      }
      case wire::Decoder::Result::Poison:
        return false;
      case wire::Decoder::Result::Need:
        break;
    }
    const u64 elapsed = obs::mono_ns() - start;
    if (elapsed >= deadline_ns) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<u64>((deadline_ns - elapsed) / 1'000'000,
                                       1000) |
                         1));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) continue;
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // server closed
    ack_decoder_.feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

bool WireClient::process_ack(const wire::AckMsg& ack, std::string* error) {
  switch (ack.status) {
    case wire::Status::Ok:
      if (ack.acked_seq > acked_) {
        acked_ = ack.acked_seq;
        while (!window_.empty() && window_.front().first <= acked_)
          window_.pop_front();
      }
      if (ack.message == "sealed") {
        sealed_ = true;
        pending_seal_.clear();
      }
      return true;
    case wire::Status::Shed:
    case wire::Status::BadProto:
      // Transient at this level: the wire was poisoned or the server is
      // loaded — the reconnect path owns both.
      return false;
    case wire::Status::SessionErr:
      if (ack.message == "read timeout" ||
          ack.message.find("wire buffer cap") != std::string::npos)
        return false;  // transport-level, resumable
      fatal_ = true;
      fatal_reason_ = "server session error: " + ack.message;
      if (error != nullptr) *error = fatal_reason_;
      return false;
  }
  return false;
}

bool WireClient::drain_acks_until(size_t max_window, bool need_sealed,
                                  std::string* error) {
  while (window_.size() > max_window || (need_sealed && !sealed_)) {
    wire::AckMsg ack;
    if (!read_ack(&ack, opts_.ack_deadline_ns)) return false;
    if (!process_ack(ack, error)) return false;
  }
  return true;
}

bool WireClient::ensure_session(std::string* error) {
  if (fatal_) {
    if (error != nullptr) *error = fatal_reason_;
    return false;
  }
  for (u32 attempt = 0; attempt <= opts_.max_attempts; ++attempt) {
    if (fd_ < 0) {
      if (attempt > 0) backoff_sleep(attempt - 1);
      sockaddr_un addr;
      if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error != nullptr)
          *error = "socket path too long: " + opts_.socket_path;
        return false;
      }
      std::memset(&addr, 0, sizeof addr);
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
                  opts_.socket_path.size() + 1);
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        if (error != nullptr) *error = std::strerror(errno);
        return false;
      }
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0) {
        // ECONNREFUSED/ENOENT while the daemon starts up: back off, retry.
        ::close(fd);
        if (error != nullptr)
          *error = "cannot connect to " + opts_.socket_path + ": " +
                   std::strerror(errno);
        continue;
      }
      fd_ = fd;
      ack_decoder_ = wire::Decoder{};
      // HELLO with our token + the highest seq we know was acked: the
      // server's reply is the authoritative resume point.
      const std::string hello =
          wire::encode_hello(token_, acked_, opts_.name);
      wire::AckMsg ack;
      if (!send_bytes(hello, 0, /*is_epoch=*/false) ||
          !read_ack(&ack, opts_.ack_deadline_ns)) {
        close_fd();
        continue;
      }
      if (ack.status != wire::Status::Ok) {
        close_fd();
        if (ack.status == wire::Status::SessionErr) {
          fatal_ = true;
          fatal_reason_ = "server refused session: " + ack.message;
          if (error != nullptr) *error = fatal_reason_;
          return false;
        }
        continue;  // Shed / BadProto: back off and retry
      }
      ++reconnects_;
      hello_done_ = true;
      if (ack.message == "sealed") {
        // The stream already finalized server-side (our final ACK was the
        // casualty): nothing left to retransmit.
        sealed_ = true;
        window_.clear();
        pending_seal_.clear();
      } else if (ack.acked_seq > acked_) {
        acked_ = ack.acked_seq;
        while (!window_.empty() && window_.front().first <= acked_)
          window_.pop_front();
      } else if (ack.acked_seq < acked_) {
        // The daemon restarted: its in-memory session state is gone and
        // our window no longer holds the acked prefix. Only a caller that
        // still has the source can repair this (push restarts itself).
        needs_restart_ = true;
        if (error != nullptr)
          *error = "server lost session state (restarted?); re-push "
                   "required";
        return false;
      }
    }
    if (begun_ && !offer_done_ && !sealed_) {
      const std::string offer = wire::encode_offer(num_workers_, 0);
      wire::AckMsg ack;
      if (!send_bytes(offer, 0, /*is_epoch=*/false) ||
          !read_ack(&ack, opts_.ack_deadline_ns)) {
        close_fd();
        continue;
      }
      if (ack.status != wire::Status::Ok) {
        close_fd();
        if (ack.status == wire::Status::SessionErr ||
            ack.status == wire::Status::BadProto) {
          fatal_ = true;
          fatal_reason_ = "server refused offer: " + ack.message;
          if (error != nullptr) *error = fatal_reason_;
          return false;
        }
        continue;  // Shed: overloaded, back off and retry
      }
      offer_done_ = true;
      // Retransmit the unacked window in order; the server dedupes any
      // overlap with what it already applied.
      bool sent = true;
      for (const auto& [seq, bytes] : window_) {
        if (!send_bytes(bytes, seq, /*is_epoch=*/true)) {
          sent = false;
          break;
        }
      }
      if (!sent) {
        close_fd();
        continue;
      }
    }
    return true;
  }
  if (error != nullptr && error->empty())
    *error = "connection attempts exhausted";
  return false;
}

bool WireClient::begin(u32 num_workers, std::string* error) {
  if (begun_ && num_workers != num_workers_) {
    if (error != nullptr) *error = "begin() with a different worker count";
    return false;
  }
  num_workers_ = num_workers;
  begun_ = true;
  return ensure_session(error);
}

bool WireClient::send_frame(std::string_view frame_bytes, u64 spool_offset,
                            std::string* error) {
  if (!begun_) {
    if (error != nullptr) *error = "send_frame before begin";
    return false;
  }
  // A resume can discover the stream already sealed server-side (our final
  // ACK was the crash casualty): every frame is durable, nothing to send.
  if (sealed_) {
    ++epochs_sent_;
    return true;
  }
  const u32 seq = next_seq_++;
  ++epochs_sent_;
  // Resume dedupe: a fresh client on an old token learns the server's
  // acked high-water from HELLO. Seqs at or below it are already durable
  // server-side — enqueueing them would fill the window with frames that
  // never ship and so never ack.
  if (seq <= acked_) return true;
  window_.emplace_back(seq,
                       wire::encode_epoch(seq, spool_offset, frame_bytes));
  for (u32 attempt = 0; attempt <= opts_.max_attempts; ++attempt) {
    if (!ensure_session(error)) return false;
    bool ok = true;
    // The frame may already have gone out with the window retransmit (and
    // may even be acked); an extra copy is deduped by seq.
    if (!window_.empty() && window_.back().first == seq && seq > acked_)
      ok = send_bytes(window_.back().second, seq, /*is_epoch=*/true);
    if (ok) ok = drain_acks_until(opts_.window - 1, false, error);
    if (ok) return true;
    if (fatal_ || needs_restart_) return false;
    close_fd();
    backoff_sleep(attempt);
  }
  if (error != nullptr) *error = "send retries exhausted";
  return false;
}

bool WireClient::seal(wire::EndKind end, u64 end_offset, u64 end_len,
                      std::string* error) {
  if (!begun_) {
    if (error != nullptr) *error = "seal before begin";
    return false;
  }
  if (sealed_) return true;
  pending_seal_ = wire::encode_seal(next_seq_, end, end_offset, end_len);
  for (u32 attempt = 0; attempt <= opts_.max_attempts; ++attempt) {
    if (!ensure_session(error)) return false;
    if (sealed_) return true;  // resume found the stream already sealed
    // Every epoch must be durable before the stream may end: drain the
    // window to empty, then SEAL and wait for the final ack.
    bool ok = drain_acks_until(0, false, error);
    if (ok) ok = send_bytes(pending_seal_, 0, /*is_epoch=*/false);
    if (ok) ok = drain_acks_until(0, true, error);
    if (ok && sealed_) return true;
    if (fatal_ || needs_restart_) return false;
    close_fd();
    backoff_sleep(attempt);
  }
  if (error != nullptr) *error = "seal retries exhausted";
  return false;
}

void WireClient::bye() {
  if (fd_ < 0) return;
  const std::string b = wire::encode_bye(0);
  raw_send_all(fd_, b.data(), b.size());
  close_fd();
}

void WireClient::reset_stream() {
  acked_ = 0;
  next_seq_ = 1;
  window_.clear();
  pending_seal_.clear();
  sealed_ = false;
  needs_restart_ = false;
  offer_done_ = false;
}

bool push_frames(WireClient& client, std::string_view bytes, u64* offset,
                 spool::FrameStep* tail, std::string* error) {
  for (;;) {
    *tail = spool::next_frame(bytes, *offset);
    if (tail->step != spool::Step::Frame) return true;
    if (!client.send_frame(bytes.substr(tail->offset, tail->size()),
                           tail->offset, error))
      return false;
    *offset += tail->size();
    if (tail->footer) return true;
  }
}

bool seal_at(WireClient& client, const spool::FrameStep& tail,
             std::string* error) {
  return client.seal(wire::end_kind(tail.step), tail.offset,
                     tail.payload_len, error);
}

bool push_spool_stream(WireClient& client, std::string_view bytes,
                       std::string* error) {
  const spool::StreamHeader header = spool::read_stream_header(bytes);
  if (!header.ok()) {
    if (error != nullptr) *error = header.error;
    return false;
  }
  if (!client.begin(header.num_workers, error)) return false;
  u64 offset = spool::kStreamHeaderBytes;
  spool::FrameStep tail;
  return push_frames(client, bytes, &offset, &tail, error) &&
         seal_at(client, tail, error);
}

bool WireClient::push_bytes(std::string_view spool_bytes,
                            std::string* error) {
  // A daemon restart mid-push drops the server's in-memory prefix; we
  // still hold the source, so restart the push from scratch (bounded).
  for (int round = 0; round < 4; ++round) {
    std::string err;
    if (push_spool_stream(*this, spool_bytes, &err)) return true;
    if (needs_restart_) {
      reset_stream();
      continue;
    }
    if (error != nullptr) *error = err;
    return false;
  }
  if (error != nullptr) *error = "push restarted too many times";
  return false;
}

bool WireClient::push_file(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr)
      *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  std::string bytes;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      if (error != nullptr)
        *error = "cannot read " + path + ": " + std::strerror(errno);
      return false;
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return push_bytes(bytes, error);
}

}  // namespace gg::serve
