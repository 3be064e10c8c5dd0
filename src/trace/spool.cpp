#include "trace/spool.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <exception>
#include <memory>

#include "common/par_for.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "trace/incremental.hpp"
#include "trace/mmap_source.hpp"
#include "trace/record_codec.hpp"

namespace gg::spool {

namespace {

// --- little-endian primitives ----------------------------------------------

void put_u8(std::string& out, u8 v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, u32 v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, u64 v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<u32>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader; any overrun latches !ok and makes
/// every further read return 0 (the caller checks once at the end).
struct Reader {
  const char* p;
  size_t n;
  size_t pos = 0;
  bool ok = true;

  explicit Reader(std::string_view s) : p(s.data()), n(s.size()) {}

  bool need(size_t k) {
    if (!ok || n - pos < k) {
      ok = false;
      return false;
    }
    return true;
  }
  u8 get_u8() {
    if (!need(1)) return 0;
    return static_cast<u8>(p[pos++]);
  }
  u32 get_u32() {
    if (!need(4)) return 0;
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<u32>(static_cast<u8>(p[pos + static_cast<size_t>(i)]))
           << (8 * i);
    pos += 4;
    return v;
  }
  u64 get_u64() {
    if (!need(8)) return 0;
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<u64>(static_cast<u8>(p[pos + static_cast<size_t>(i)]))
           << (8 * i);
    pos += 8;
    return v;
  }
  std::string get_str() {
    const u32 len = get_u32();
    if (!need(len)) return {};
    std::string s(p + pos, len);
    pos += len;
    return s;
  }
};

u32 read_le32(const char* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<u32>(static_cast<u8>(p[i])) << (8 * i);
  return v;
}

u64 read_le64(const char* p) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<u64>(static_cast<u8>(p[i])) << (8 * i);
  return v;
}

void write_le32(char* p, u32 v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void write_le64(char* p, u64 v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// An epoch payload opens with one u32 record count per record type, in
/// schema order; the records follow in the same order.
constexpr size_t kEpochCountBytes = 8 * sizeof(u32);

}  // namespace

bool decode_meta_payload(std::string_view payload, TraceMeta* out) {
  Reader r(payload);
  TraceMeta m;
  m.program = r.get_str();
  m.runtime = r.get_str();
  m.topology = r.get_str();
  m.num_workers = static_cast<int>(r.get_u32());
  m.num_cores = static_cast<int>(r.get_u32());
  const u64 ghz_bits = r.get_u64();
  std::memcpy(&m.ghz, &ghz_bits, sizeof m.ghz);
  m.region_start = r.get_u64();
  m.region_end = r.get_u64();
  m.profiled = r.get_u8() != 0;
  m.trace_buffer_bytes = r.get_u64();
  m.clock_source = r.get_str();
  const u32 n_notes = r.get_u32();
  if (n_notes > payload.size()) return false;
  for (u32 i = 0; i < n_notes && r.ok; ++i) m.notes.push_back(r.get_str());
  if (!r.ok || r.pos != payload.size()) return false;
  *out = std::move(m);
  return true;
}

/// Checksum over (type, worker, seq, payload) — the header's self-describing
/// fields plus the data they frame. Public (spool.hpp): spool-aware tools
/// (ggstat) verify individual frames without a full recovery pass.
u64 frame_checksum(FrameType type, u32 worker, u32 seq, const void* payload,
                   size_t len) noexcept {
  char prefix[9];
  prefix[0] = static_cast<char>(type);
  write_le32(prefix + 1, worker);
  write_le32(prefix + 5, seq);
  const u64 h = fnv1a(prefix, sizeof prefix);
  return fnv1a(payload, len, h);
}

namespace {

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGTERM: return "SIGTERM";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    default: return "signal";
  }
}

/// How often the background flusher asks every worker to seal.
constexpr u64 kFlushIntervalNs = 50'000'000;

// --- crash-handler registry (process-global, async-signal-safe) -------------

constexpr int kHandledSignals[] = {SIGSEGV, SIGABRT, SIGTERM};
constexpr size_t kMaxSinks = 8;

std::atomic<SpoolSink*> g_sinks[kMaxSinks];
struct sigaction g_old_actions[3];
std::terminate_handler g_old_terminate = nullptr;
std::mutex g_handler_mutex;
int g_registered_sinks = 0;

int signal_slot(int sig) {
  for (size_t i = 0; i < 3; ++i) {
    if (kHandledSignals[i] == sig) return static_cast<int>(i);
  }
  return -1;
}

extern "C" void gg_spool_signal_handler(int sig) {
  for (auto& slot : g_sinks) {
    if (SpoolSink* s = slot.load(std::memory_order_acquire))
      s->emergency_flush(sig, nullptr);
  }
  // Restore the previous disposition and re-raise so the process dies with
  // the original signal (core dumps, wait statuses and ASan reports intact).
  const int idx = signal_slot(sig);
  if (idx >= 0) ::sigaction(sig, &g_old_actions[idx], nullptr);
  ::raise(sig);
}

[[noreturn]] void gg_spool_terminate_handler() {
  for (auto& slot : g_sinks) {
    if (SpoolSink* s = slot.load(std::memory_order_acquire))
      s->emergency_flush(0, "terminate");
  }
  if (g_old_terminate != nullptr) g_old_terminate();
  std::abort();
}

void register_sink(SpoolSink* sink) {
  std::lock_guard lock(g_handler_mutex);
  for (auto& slot : g_sinks) {
    SpoolSink* expected = nullptr;
    if (slot.compare_exchange_strong(expected, sink)) break;
  }
  if (g_registered_sinks++ == 0) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = gg_spool_signal_handler;
    sigemptyset(&sa.sa_mask);
    for (int sig : kHandledSignals)
      ::sigaction(sig, &sa, &g_old_actions[signal_slot(sig)]);
    g_old_terminate = std::set_terminate(gg_spool_terminate_handler);
  }
}

void unregister_sink(SpoolSink* sink) {
  std::lock_guard lock(g_handler_mutex);
  for (auto& slot : g_sinks) {
    SpoolSink* expected = sink;
    slot.compare_exchange_strong(expected, nullptr);
  }
  if (--g_registered_sinks == 0) {
    for (int sig : kHandledSignals)
      ::sigaction(sig, &g_old_actions[signal_slot(sig)], nullptr);
    std::set_terminate(g_old_terminate);
    g_old_terminate = nullptr;
  }
}

}  // namespace

// --- public pure helpers ----------------------------------------------------

bool check_epoch_payload(std::string_view payload, RecordCounts* counts) {
  if (payload.size() < kEpochCountBytes) return false;
  u32 declared_counts[8];
  std::memcpy(declared_counts, payload.data(), kEpochCountBytes);
  // Every record has a fixed size, so the counts must account for the
  // payload exactly. u64 arithmetic: 8 u32 counts times ~100-byte records
  // cannot overflow.
  u64 declared = 0;
  size_t kind = 0;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    (*counts)[kind] = declared_counts[kind];
    declared += u64{declared_counts[kind++]} *
                codec::kRecordBytes<codec::Spool, Rec>;
  });
  if (declared != payload.size() - kEpochCountBytes) return false;
  const char* p = payload.data() + kEpochCountBytes;
  bool ok = true;
  kind = 0;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    constexpr size_t kStride = codec::kRecordBytes<codec::Spool, Rec>;
    const size_t n = (*counts)[kind++];
    for (size_t i = 0; i < n && ok; ++i, p += kStride) {
      Rec rec;
      ok = codec::get<codec::Spool>(p, rec) == codec::Fault::None;
    }
  });
  return ok;
}

void place_epoch_payload(std::string_view payload, Trace& trace,
                         const RecordCounts& at) {
  const char* counts = payload.data();
  const char* p = payload.data() + kEpochCountBytes;
  size_t kind = 0;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    constexpr size_t kStride = codec::kRecordBytes<codec::Spool, Rec>;
    auto& recs = schema::Record<Rec>::of(trace);
    const size_t base = at[kind++];
    const u32 n = read_le32(counts);
    counts += sizeof n;
    for (u32 i = 0; i < n; ++i, p += kStride) {
      codec::get<codec::Spool>(p, recs[base + i]);
    }
  });
}

u64 fnv1a(const void* data, size_t len, u64 seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  u64 h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

size_t RecordBuffer::records() const {
  size_t n = 0;
  schema::for_each_vector(*this, [&](const auto& v) { n += v.size(); });
  return n;
}

void RecordBuffer::clear() {
  schema::for_each_vector(*this, [](auto& v) { v.clear(); });
}

u64 RecordBuffer::payload_bytes() const { return schema::record_bytes(*this); }

void RecordBuffer::move_into(Trace& trace) {
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    auto& src = schema::Record<Rec>::of(*this);
    auto& dst = schema::Record<Rec>::of(trace);
    dst.insert(dst.end(), src.begin(), src.end());
    src.clear();
  });
}

std::string encode_frame(FrameType type, u32 worker, u32 seq,
                         std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, sizeof kFrameMagic);
  put_u8(out, static_cast<u8>(type));
  put_u32(out, worker);
  put_u32(out, seq);
  put_u64(out, payload.size());
  put_u64(out, frame_checksum(type, worker, seq, payload.data(),
                              payload.size()));
  out.append(payload);
  return out;
}

std::string encode_meta_payload(const TraceMeta& meta) {
  std::string out;
  put_str(out, meta.program);
  put_str(out, meta.runtime);
  put_str(out, meta.topology);
  put_u32(out, static_cast<u32>(meta.num_workers));
  put_u32(out, static_cast<u32>(meta.num_cores));
  u64 ghz_bits = 0;
  std::memcpy(&ghz_bits, &meta.ghz, sizeof ghz_bits);
  put_u64(out, ghz_bits);
  put_u64(out, meta.region_start);
  put_u64(out, meta.region_end);
  put_u8(out, meta.profiled ? 1 : 0);
  put_u64(out, meta.trace_buffer_bytes);
  put_str(out, meta.clock_source);
  put_u32(out, static_cast<u32>(meta.notes.size()));
  for (const std::string& n : meta.notes) put_str(out, n);
  return out;
}

std::string encode_strings_payload(u32 first_id,
                                   const std::vector<std::string>& strings) {
  std::string out;
  put_u32(out, first_id);
  put_u32(out, static_cast<u32>(strings.size()));
  for (const std::string& s : strings) put_str(out, s);
  return out;
}

std::string encode_epoch_payload(const RecordBuffer& buf) {
  size_t total = kEpochCountBytes;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    total += schema::Record<Rec>::of(buf).size() *
             codec::kRecordBytes<codec::Spool, Rec>;
  });
  std::string out(total, '\0');
  char* counts = out.data();
  char* p = counts + kEpochCountBytes;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    const auto& recs = schema::Record<Rec>::of(buf);
    const u32 n = static_cast<u32>(recs.size());
    std::memcpy(counts, &n, sizeof n);
    counts += sizeof n;
    for (const Rec& r : recs) p = codec::put<codec::Spool>(p, r);
  });
  return out;
}

// --- SpoolSink --------------------------------------------------------------

std::unique_ptr<SpoolSink> SpoolSink::open(const SpoolOptions& opts,
                                           const TraceMeta& initial_meta,
                                           int num_workers,
                                           std::string* error) {
  auto sink = std::unique_ptr<SpoolSink>(new SpoolSink());
  sink->opts_ = opts;
  sink->path_ = opts.path;
  sink->num_workers_ = num_workers;
  sink->fd_ = ::open(opts.path.c_str(),
                     O_CREAT | O_TRUNC | O_WRONLY | O_APPEND | O_CLOEXEC,
                     0644);
  if (sink->fd_ < 0) {
    if (error != nullptr)
      *error = "cannot open spool file " + opts.path + ": " +
               std::strerror(errno);
    return nullptr;
  }
  sink->epoch_seq_ =
      std::vector<std::atomic<u32>>(static_cast<size_t>(num_workers));
  sink->flush_due_ =
      std::vector<std::atomic<bool>>(static_cast<size_t>(num_workers));

  // Preassemble the crash-footer frame; the signal handler only patches the
  // payload and checksum fields in place.
  {
    char* f = sink->crash_frame_;
    std::memcpy(f, kFrameMagic, sizeof kFrameMagic);
    f[4] = static_cast<char>(FrameType::CrashFooter);
    write_le32(f + 5, 0);                           // worker
    write_le32(f + 9, 0);                           // seq
    write_le64(f + 13, kCrashPayloadBytes);         // payload_len
    write_le64(f + 21, 0);                          // checksum (patched)
  }

  std::string header(kSpoolMagic);
  put_u32(header, static_cast<u32>(num_workers));
  sink->write_all(header.data(), header.size());
  sink->tap_offset_ = header.size();
  {
    std::lock_guard lock(sink->file_mutex_);
    sink->write_frame_locked(FrameType::Meta, 0, 0,
                             encode_meta_payload(initial_meta));
  }
  if (opts.telemetry != nullptr) {
    sink->m_frames_ = opts.telemetry->counter("spool.frames_written");
    sink->m_bytes_ = opts.telemetry->counter("spool.bytes_written");
    sink->m_records_ = opts.telemetry->counter("spool.records_sealed");
    sink->m_emergency_ = opts.telemetry->counter("spool.emergency_flushes");
    sink->m_flush_ns_ = opts.telemetry->histogram("spool.flush_ns");
  }
  if (opts.crash_handlers) {
    register_sink(sink.get());
    sink->handlers_registered_ = true;
  }
  sink->flusher_ = std::thread([s = sink.get()] { s->flusher_main(); });
  return sink;
}

SpoolSink::~SpoolSink() {
  if (!closed_.load(std::memory_order_acquire)) close_unclean();
}

void SpoolSink::write_all(const char* data, size_t len) noexcept {
  while (len > 0) {
    const ssize_t n = ::write(fd_, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // disk full / closed fd: nothing actionable mid-run
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

void SpoolSink::write_frame_locked(FrameType type, u32 worker, u32 seq,
                                   std::string_view payload) {
  const std::string frame = encode_frame(type, worker, seq, payload);
  if (m_frames_ != nullptr) {
    m_frames_->add();
    m_bytes_->add(frame.size());
  }
  // The tap sees frames in emission order (callers hold file_mutex_) at the
  // offset they occupy in the file.
  if (opts_.frame_tap) opts_.frame_tap(frame, tap_offset_);
  tap_offset_ += frame.size();
  if (m_flush_ns_ != nullptr) {
    const u64 t0 = obs::mono_ns();
    write_all(frame.data(), frame.size());
    m_flush_ns_->observe(obs::mono_ns() - t0);
    return;
  }
  write_all(frame.data(), frame.size());
}

void SpoolSink::seal_epoch(u32 worker, RecordBuffer& buf,
                           const StringsDeltaFn& delta) {
  if (closed_.load(std::memory_order_acquire) ||
      crashed_.load(std::memory_order_acquire)) {
    buf.clear();
    return;
  }
  flush_due_[worker].store(false, std::memory_order_relaxed);
  if (buf.empty()) return;
  const std::string payload = encode_epoch_payload(buf);
  payload_bytes_.fetch_add(buf.payload_bytes(), std::memory_order_relaxed);
  if (m_records_ != nullptr) m_records_->add(buf.records());
  buf.clear();
  std::lock_guard lock(file_mutex_);
  if (delta) {
    std::vector<std::string> fresh;
    delta(strings_flushed_, &fresh);
    if (!fresh.empty()) {
      write_frame_locked(FrameType::Strings, 0, 0,
                         encode_strings_payload(strings_flushed_, fresh));
      strings_flushed_ += static_cast<u32>(fresh.size());
    }
  }
  const u32 seq = epoch_seq_[worker].fetch_add(1, std::memory_order_relaxed);
  write_frame_locked(FrameType::Epoch, worker, seq, payload);
}

void SpoolSink::flush_strings(const StringsDeltaFn& delta) {
  if (!delta || closed_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(file_mutex_);
  std::vector<std::string> fresh;
  delta(strings_flushed_, &fresh);
  if (fresh.empty()) return;
  write_frame_locked(FrameType::Strings, 0, 0,
                     encode_strings_payload(strings_flushed_, fresh));
  strings_flushed_ += static_cast<u32>(fresh.size());
}

void SpoolSink::append_dump(const std::string& text) {
  if (closed_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(file_mutex_);
  write_frame_locked(FrameType::Dump, 0, 0, text);
}

void SpoolSink::append_telemetry(std::string_view payload) {
  if (payload.empty()) return;
  if (closed_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(file_mutex_);
  write_frame_locked(FrameType::Telemetry, 0, telemetry_seq_++, payload);
}

void SpoolSink::flusher_main() {
  const bool telemetry =
      opts_.telemetry_interval_ns > 0 && opts_.telemetry_source;
  u64 last_request = obs::mono_ns();
  u64 last_telemetry = last_request;
  // stop_flusher joins this thread, so the poll period bounds how long
  // finish() waits for it.
  while (!flusher_stop_.load(std::memory_order_acquire)) {
    const u64 now = obs::mono_ns();
    if (now - last_request >= kFlushIntervalNs) {
      for (auto& due : flush_due_) due.store(true, std::memory_order_relaxed);
      last_request = now;
    }
    if (telemetry &&
        now - last_telemetry >= static_cast<u64>(opts_.telemetry_interval_ns)) {
      append_telemetry(opts_.telemetry_source());
      last_telemetry = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void SpoolSink::stop_flusher() {
  if (!flusher_.joinable()) return;
  flusher_stop_.store(true, std::memory_order_release);
  flusher_.join();
}

void SpoolSink::finish(const TraceMeta& final_meta) {
  // Final telemetry snapshot ahead of the footer, so a finished spool's
  // last 'T' frame reflects the completed run (ggstat's one-shot view).
  if (opts_.telemetry_source) append_telemetry(opts_.telemetry_source());
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(file_mutex_);
    write_frame_locked(FrameType::CleanFooter, 0, 0,
                       encode_meta_payload(final_meta));
  }
  stop_flusher();
  if (handlers_registered_) {
    unregister_sink(this);
    handlers_registered_ = false;
  }
  ::close(fd_);
  fd_ = -1;
}

void SpoolSink::close_unclean() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  stop_flusher();
  if (handlers_registered_) {
    unregister_sink(this);
    handlers_registered_ = false;
  }
  ::close(fd_);
  fd_ = -1;
}

void SpoolSink::emergency_flush(int sig, const char* reason) noexcept {
  if (crashed_.exchange(true, std::memory_order_acq_rel)) return;
  if (fd_ < 0) return;
  // Counter::add is a lock-free fetch_add: async-signal-safe.
  if (m_emergency_ != nullptr) m_emergency_->add();
  // Every sealed frame is already in the file (written at seal time), so
  // only the footer remains. Patch the preassembled crash footer: payload =
  // u32 signal, then a null-padded reason string. Manual formatting only —
  // no allocation, no stdio in signal context.
  char* payload = crash_frame_ + kFrameHeaderBytes;
  for (size_t i = 0; i < kCrashPayloadBytes; ++i) payload[i] = 0;
  write_le32(payload, static_cast<u32>(sig));
  char* text = payload + 4;
  const size_t text_cap = kCrashPayloadBytes - 4 - 1;
  size_t pos = 0;
  auto append = [&](const char* s) {
    for (size_t i = 0; s[i] != 0 && pos < text_cap; ++i) text[pos++] = s[i];
  };
  if (reason != nullptr) {
    append(reason);
  } else {
    append("signal=");
    char digits[12];
    int nd = 0;
    int v = sig;
    if (v == 0) digits[nd++] = '0';
    while (v > 0 && nd < 11) {
      digits[nd++] = static_cast<char>('0' + v % 10);
      v /= 10;
    }
    while (nd > 0 && pos < text_cap) text[pos++] = digits[--nd];
    append(" ");
    append(signal_name(sig));
  }
  write_le64(crash_frame_ + 21,
             frame_checksum(FrameType::CrashFooter, 0, 0, payload,
                            kCrashPayloadBytes));
  write_all(crash_frame_, sizeof crash_frame_);
}

// --- recovery ---------------------------------------------------------------

std::string RecoverReport::summary() const {
  std::string s = "frames=" + std::to_string(frames_kept) + "/" +
                  std::to_string(frames_total);
  s += clean_footer ? " footer=clean" : " footer=missing";
  if (frames_corrupt > 0) s += " corrupt=" + std::to_string(frames_corrupt);
  if (frames_out_of_order > 0)
    s += " out_of_order=" + std::to_string(frames_out_of_order);
  if (epoch_gaps > 0) s += " epoch_gaps=" + std::to_string(epoch_gaps);
  if (telemetry_corrupt > 0)
    s += " telemetry_corrupt=" + std::to_string(telemetry_corrupt);
  if (torn_tail) s += " torn-tail";
  s += " epochs=";
  for (size_t i = 0; i < epochs_per_worker.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(epochs_per_worker[i]);
  }
  return s;
}

bool looks_like_spool(std::string_view bytes) {
  return bytes.size() >= kSpoolMagic.size() &&
         bytes.substr(0, kSpoolMagic.size()) == kSpoolMagic;
}

// --- the frame walker -------------------------------------------------------

StreamHeader read_stream_header(std::string_view bytes) {
  StreamHeader h;
  if (!looks_like_spool(bytes)) {
    h.error = "not a spool stream (bad magic)";
  } else if (bytes.size() < kStreamHeaderBytes) {
    h.error = "torn spool header";
  } else {
    h.num_workers = read_le32(bytes.data() + kSpoolMagic.size());
    if (h.num_workers == 0 || h.num_workers > 4096) {
      h.error = "implausible worker count " + std::to_string(h.num_workers);
    }
  }
  return h;
}

bool FrameStep::verifies() const {
  return frame_checksum(type, worker, seq, payload.data(), payload.size()) ==
         checksum;
}

FrameStep next_frame(std::string_view bytes, u64 offset) {
  FrameStep f;
  f.offset = offset;
  if (offset >= bytes.size()) return f;  // Step::End
  const u64 rem = bytes.size() - offset;
  if (rem < kFrameHeaderBytes) {
    f.step = Step::TornHeader;
    return f;
  }
  const char* h = bytes.data() + offset;
  if (std::memcmp(h, kFrameMagic, sizeof kFrameMagic) != 0) {
    f.step = Step::Garbled;
    return f;
  }
  f.type = static_cast<FrameType>(static_cast<u8>(h[4]));
  f.worker = read_le32(h + 5);
  f.seq = read_le32(h + 9);
  f.payload_len = read_le64(h + 13);
  f.checksum = read_le64(h + 21);
  if (f.payload_len > kMaxFramePayload) {
    f.step = Step::Overrun;
    return f;
  }
  if (f.payload_len > rem - kFrameHeaderBytes) {
    f.step = Step::TornPayload;
    return f;
  }
  f.step = Step::Frame;
  f.payload = std::string_view(h + kFrameHeaderBytes,
                               static_cast<size_t>(f.payload_len));
  f.footer = (f.type == FrameType::CleanFooter ||
              f.type == FrameType::CrashFooter) &&
             f.verifies();
  return f;
}

namespace {

/// Walks the frames of `bytes` and applies them to a new IncrementalTrace
/// at `threads` threads. Null, with the reason in *report, when the stream
/// header is unusable.
std::unique_ptr<IncrementalTrace> replay_frames(std::string_view bytes,
                                                int threads,
                                                RecoverReport* report) {
  const StreamHeader header = read_stream_header(bytes);
  if (!header.ok()) {
    report->diagnostics.push_back(header.error);
    return nullptr;
  }
  std::vector<FrameStep> frames;
  FrameStep stop;  // Step::End unless the walk stops at damage
  {
    obs::PhaseSpan span("spool.walk");
    for (u64 pos = kStreamHeaderBytes;;) {
      const FrameStep f = next_frame(bytes, pos);
      if (f.step != Step::Frame) {
        stop = f;
        break;
      }
      frames.push_back(f);
      if (f.footer) break;
      pos += f.size();
    }
  }
  // The per-frame keep/skip/degrade decisions live in IncrementalTrace so
  // the live tailer and the wire ingest (src/serve/) share them.
  auto inc = std::make_unique<IncrementalTrace>(header.num_workers);
  inc->apply_frames(frames, threads);
  inc->note_tail(stop.step, stop.offset, stop.payload_len);
  return inc;
}

/// Finishes (and so finalizes) a replayed stream into a result; a null
/// stream gives an unusable result carrying `report`.
RecoverResult finish_recovery(std::unique_ptr<IncrementalTrace> inc,
                              RecoverReport report, int threads) {
  RecoverResult res;
  if (inc == nullptr) {
    res.report = std::move(report);
    return res;
  }
  res.usable = inc->finish(threads);
  res.report = std::move(inc->report());
  res.trace = std::move(inc->trace());
  return res;
}

}  // namespace

RecoverResult recover_spool_bytes(std::string_view bytes, int threads) {
  threads = resolve_threads(threads);
  RecoverReport report;
  std::unique_ptr<IncrementalTrace> inc =
      replay_frames(bytes, threads, &report);
  return finish_recovery(std::move(inc), std::move(report), threads);
}

RecoverResult recover_spool_file(const std::string& path, std::string* error,
                                 int threads) {
  threads = resolve_threads(threads);
  // Zero-copy recovery: the frame walk is view-based, so mapping the spool
  // avoids buffering what can be a multi-gigabyte crash artifact
  // (MmapSource falls back to a read loop for non-regular files). The
  // replayed trace owns copies of everything it keeps, so the mapping is
  // released before finalize: the sort's scratch memory then does not
  // stack on top of the mapped spool.
  std::unique_ptr<IncrementalTrace> inc;
  RecoverReport report;
  {
    MmapSource src;
    if (!src.open(path)) {
      if (error != nullptr) *error = "cannot open " + path;
      report.diagnostics.push_back("cannot open " + path);
    } else {
      inc = replay_frames(src.view(), threads, &report);
    }
  }
  return finish_recovery(std::move(inc), std::move(report), threads);
}

// --- whole-trace spooling ---------------------------------------------------

namespace {

/// Splits one worker's records into epoch-sized batches (in-memory payload
/// bytes, matching the recorder's seal threshold).
std::vector<RecordBuffer> slice_buffer(RecordBuffer& b, u64 epoch_bytes) {
  std::vector<RecordBuffer> slices;
  slices.emplace_back();
  u64 bytes = 0;
  schema::for_each_record([&](auto type) {
    using Rec = typename decltype(type)::type;
    for (const Rec& rec : schema::Record<Rec>::of(b)) {
      if (bytes >= epoch_bytes && !slices.back().empty()) {
        slices.emplace_back();
        bytes = 0;
      }
      schema::Record<Rec>::of(slices.back()).push_back(rec);
      bytes += sizeof rec;
    }
  });
  b.clear();
  if (slices.back().empty()) slices.pop_back();
  return slices;
}

/// Partitions a finalized trace's records by the worker that would have
/// recorded them (core/thread fields; depends land on worker 0, as they are
/// recorded by the spawning context).
std::vector<RecordBuffer> partition_by_worker(const Trace& trace, u32 nw) {
  std::vector<RecordBuffer> per(nw);
  auto wk = [nw](u64 w) { return static_cast<size_t>(std::min<u64>(w, nw - 1)); };
  for (const auto& r : trace.tasks) per[wk(r.create_core)].tasks.push_back(r);
  for (const auto& r : trace.fragments)
    per[wk(r.core)].fragments.push_back(r);
  for (const auto& r : trace.joins) per[wk(r.core)].joins.push_back(r);
  for (const auto& r : trace.loops)
    per[wk(r.starting_thread)].loops.push_back(r);
  for (const auto& r : trace.chunks) per[wk(r.thread)].chunks.push_back(r);
  for (const auto& r : trace.bookkeeps)
    per[wk(r.thread)].bookkeeps.push_back(r);
  for (const auto& r : trace.depends) per[0].depends.push_back(r);
  for (const auto& r : trace.worker_stats)
    per[wk(r.worker)].worker_stats.push_back(r);
  return per;
}

/// Splits the trace into per-worker epochs and hands them to
/// seal(worker, epoch) the way a live run interleaves workers — one epoch
/// per worker per round, so recovery sees realistically mixed frame order —
/// calling round_end() after each round.
template <class Seal, class RoundEnd>
void seal_rounds(const Trace& trace, u32 nw, u64 epoch_bytes, Seal&& seal,
                 RoundEnd&& round_end) {
  std::vector<RecordBuffer> per = partition_by_worker(trace, nw);
  std::vector<std::vector<RecordBuffer>> sliced(nw);
  size_t max_slices = 0;
  for (u32 w = 0; w < nw; ++w) {
    sliced[w] = slice_buffer(per[w], epoch_bytes);
    max_slices = std::max(max_slices, sliced[w].size());
  }
  for (size_t s = 0; s < max_slices; ++s) {
    for (u32 w = 0; w < nw; ++w) {
      if (s < sliced[w].size()) seal(w, sliced[w][s]);
    }
    round_end();
  }
}

}  // namespace

bool spool_trace(const Trace& trace, const SpoolOptions& opts,
                 std::string* error) {
  const u32 nw = static_cast<u32>(std::max(1, trace.meta.num_workers));
  auto sink = SpoolSink::open(opts, trace.meta, static_cast<int>(nw), error);
  if (!sink) return false;
  const auto delta = [&trace](u32 from, std::vector<std::string>* out) {
    for (u32 i = from; i < trace.strings.size(); ++i)
      out->push_back(std::string(trace.strings.get(i)));
  };
  sink->flush_strings(delta);
  seal_rounds(
      trace, nw, opts.epoch_bytes,
      [&](u32 w, RecordBuffer& epoch) { sink->seal_epoch(w, epoch, delta); },
      [] {});
  sink->finish(trace.meta);
  return true;
}

std::string spool_trace_bytes(const Trace& trace, u64 epoch_bytes,
                              const std::vector<std::string>& telemetry) {
  const u32 nw = static_cast<u32>(std::max(1, trace.meta.num_workers));
  std::string out(kSpoolMagic);
  put_u32(out, nw);
  out += encode_frame(FrameType::Meta, 0, 0,
                      encode_meta_payload(trace.meta));
  if (trace.strings.size() > 1) {
    std::vector<std::string> all;
    for (u32 i = 1; i < trace.strings.size(); ++i)
      all.push_back(std::string(trace.strings.get(i)));
    out += encode_frame(FrameType::Strings, 0, 0,
                        encode_strings_payload(1, all));
  }
  std::vector<u32> seq(nw, 0);
  u32 tseq = 0;
  seal_rounds(
      trace, nw, epoch_bytes,
      [&](u32 w, RecordBuffer& epoch) {
        out += encode_frame(FrameType::Epoch, w, seq[w]++,
                            encode_epoch_payload(epoch));
      },
      [&] {
        if (tseq < telemetry.size()) {
          out += encode_frame(FrameType::Telemetry, 0, tseq, telemetry[tseq]);
          ++tseq;
        }
      });
  for (; tseq < telemetry.size(); ++tseq)
    out += encode_frame(FrameType::Telemetry, 0, tseq, telemetry[tseq]);
  out += encode_frame(FrameType::CleanFooter, 0, 0,
                      encode_meta_payload(trace.meta));
  return out;
}

std::vector<FrameSpan> scan_frames(std::string_view bytes) {
  std::vector<FrameSpan> spans;
  if (!looks_like_spool(bytes)) return spans;
  for (u64 pos = kStreamHeaderBytes;;) {
    const FrameStep f = next_frame(bytes, pos);
    if (f.step != Step::Frame) break;
    spans.push_back({f.offset, f.size(), f.type, f.worker, f.seq});
    if (f.footer) break;
    pos += f.size();
  }
  return spans;
}

}  // namespace gg::spool
