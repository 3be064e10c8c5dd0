// GGWIRE1: the checksummed, length-prefixed wire protocol that streams
// GGSPOOL1 frames into ggserved over a socket — the network twin of the
// filesystem tailer.
//
// Stream layout (all integers little-endian):
//   frame: "GGW1" | u8 type | u32 seq | u64 payload_len | u64 checksum |
//          payload
// The checksum is FNV-1a 64 over (type, seq, payload) — the same function
// GGSPOOL1 frames use, so one hardened verifier covers both layers.
//
// Frame types and payloads:
//   'H' HELLO  client→server  u32 proto | u64 token_hi | u64 token_lo |
//                             u64 resume_seq | name bytes
//              Identity + resume point. A client that reconnects sends the
//              same token; resume_seq is the highest wire seq it knows was
//              acked (0 on a fresh session).
//   'O' OFFER  client→server  u32 num_workers
//              Describes the spool stream about to flow (the GGSPOOL1
//              header's worker count). Subject to admission: an overloaded
//              server refuses the OFFER with ACK(status=shed) before it
//              ever pauses filesystem tailers.
//   'A' ACK    server→client  u8 status | u64 acked_seq | message bytes
//              status: 0 ok, 1 shed (overload, retry later), 2 protocol
//              error (close), 3 session error. acked_seq is the highest
//              wire seq durably applied to the session's trace — everything
//              at or below it survives a crash of either side.
//   'E' EPOCH  client→server  u64 spool_offset | raw GGSPOOL1 frame bytes
//              One complete spool frame (any inner type: M/S/E/D/C/F/T)
//              plus the byte offset it occupies in the source stream, so
//              the server's recovery diagnostics are byte-identical to a
//              batch load of the same spool (load_trace_file_ex).
//   'S' SEAL   client→server  u8 end_kind | u64 end_offset | u64 end_len
//              End of stream. end_kind mirrors what a tailer would find at
//              the source's EOF: 0 clean end, 1 torn header, 2 garbled
//              magic, 3 overrun/torn payload — so a damaged source spool
//              finalizes with batch-identical tail diagnostics.
//   'B' BYE    either         (empty) polite close.
//
// Decode is strict and bounds-checked: implausible lengths are rejected
// before any allocation sized from them (the count-vs-bytes hardening from
// the spool decoder), unknown types and checksum failures poison the
// connection (ACK status=2, close) — never the session, which survives for
// resume.
#pragma once

#include <string>
#include <string_view>

#include "trace/spool.hpp"

namespace gg::serve::wire {

inline constexpr char kMagic[4] = {'G', 'G', 'W', '1'};
inline constexpr size_t kHeaderBytes = 4 + 1 + 4 + 8 + 8;
inline constexpr u32 kProtoVersion = 1;
/// Frames larger than this are rejected at the header (one spool epoch is
/// ~64 KiB; 64 MiB leaves room for giant string deltas without letting a
/// hostile length field size an allocation).
inline constexpr u64 kMaxPayload = 64ull << 20;
/// HELLO name length cap (names land in session tables and logs).
inline constexpr size_t kMaxNameBytes = 256;

enum class Type : u8 {
  Hello = 'H',
  Offer = 'O',
  Ack = 'A',
  Epoch = 'E',
  Seal = 'S',
  Bye = 'B',
};

enum class Status : u8 {
  Ok = 0,
  Shed = 1,       ///< overload: the OFFER was refused, retry later
  BadProto = 2,   ///< malformed/hostile frame: connection poisoned
  SessionErr = 3, ///< the stream itself failed (cap exceeded, not a spool)
};

/// How the source stream ended (SEAL payload): where the frame walker
/// stopped, so IncrementalTrace::note_tail matches batch recovery.
enum class EndKind : u8 {
  Clean = 0,
  TornHeader = 1,
  Garbled = 2,
  Overrun = 3,  ///< an overrun length or a torn payload
};

/// The SEAL end kind for a walk's stop, and the stop a SEAL stands for.
EndKind end_kind(spool::Step stop);
spool::Step tail_step(EndKind end);

/// 128-bit client-generated session identity. Zero means "no token".
struct Token {
  u64 hi = 0;
  u64 lo = 0;
  bool zero() const { return hi == 0 && lo == 0; }
  bool operator==(const Token& o) const { return hi == o.hi && lo == o.lo; }
  bool operator<(const Token& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
  std::string hex() const;
};

/// One decoded frame header (payload referenced, not copied).
struct Frame {
  Type type = Type::Bye;
  u32 seq = 0;
  std::string_view payload;
};

u64 checksum(Type type, u32 seq, const void* payload, size_t len) noexcept;

/// Encodes one complete frame (header + payload).
std::string encode(Type type, u32 seq, std::string_view payload);

// Typed payload builders (the encode side of the grammar above).
std::string encode_hello(const Token& token, u64 resume_seq,
                         std::string_view name);
std::string encode_offer(u32 num_workers, u32 seq);
std::string encode_ack(Status status, u64 acked_seq, std::string_view message);
std::string encode_epoch(u32 seq, u64 spool_offset,
                         std::string_view spool_frame);
std::string encode_seal(u32 seq, EndKind end, u64 end_offset, u64 end_len);
std::string encode_bye(u32 seq);

// Typed payload decoders. All strict: false on any short/overlong/
// malformed payload, with *error naming the field.
struct HelloMsg {
  u32 proto = 0;
  Token token;
  u64 resume_seq = 0;
  std::string name;
};
bool decode_hello(std::string_view payload, HelloMsg* out, std::string* error);

struct OfferMsg {
  u32 num_workers = 0;
};
bool decode_offer(std::string_view payload, OfferMsg* out, std::string* error);

struct AckMsg {
  Status status = Status::Ok;
  u64 acked_seq = 0;
  std::string message;
};
bool decode_ack(std::string_view payload, AckMsg* out, std::string* error);

struct EpochMsg {
  u64 spool_offset = 0;
  std::string_view spool_frame;  ///< points into the wire payload
};
bool decode_epoch(std::string_view payload, EpochMsg* out, std::string* error);

struct SealMsg {
  EndKind end = EndKind::Clean;
  u64 end_offset = 0;
  u64 end_len = 0;
};
bool decode_seal(std::string_view payload, SealMsg* out, std::string* error);

/// Incremental frame decoder over a reassembly buffer. feed() appends raw
/// socket bytes; next() yields complete, checksum-verified frames one at a
/// time. Hostile input (bad magic, implausible length, checksum mismatch)
/// flips the decoder into a poisoned state that never recovers — the
/// transport owns tearing the connection down; the session state survives
/// for resume.
class Decoder {
 public:
  enum class Result : u8 {
    Frame,   ///< *out holds the next verified frame
    Need,    ///< incomplete: feed more bytes
    Poison,  ///< unrecoverable stream damage; see error()
  };

  void feed(std::string_view bytes);
  /// The returned frame's payload view is valid until the next feed()/next().
  Result next(Frame* out);

  const std::string& error() const { return error_; }
  bool poisoned() const { return poisoned_; }
  /// Bytes buffered but not yet consumed (the transport's slack charge).
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  std::string buf_;
  size_t consumed_ = 0;
  std::string error_;
  bool poisoned_ = false;
};

}  // namespace gg::serve::wire
