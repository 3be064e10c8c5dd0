#include "serve/wire.hpp"

#include <cstring>

namespace gg::serve::wire {

namespace {

void put_u32(std::string* out, u32 v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string* out, u64 v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

u32 le32_at(const char* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<u32>(static_cast<u8>(p[i])) << (8 * i);
  return v;
}

u64 le64_at(const char* p) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<u64>(static_cast<u8>(p[i])) << (8 * i);
  return v;
}

/// Strict little-endian cursor over a payload; every read is bounds-checked
/// before it touches the buffer, so a lying length field can never walk the
/// cursor out of the payload.
struct Reader {
  std::string_view buf;
  size_t pos = 0;

  bool u32_(u32* out) {
    if (buf.size() - pos < 4) return false;
    *out = le32_at(buf.data() + pos);
    pos += 4;
    return true;
  }
  bool u64_(u64* out) {
    if (buf.size() - pos < 8) return false;
    *out = le64_at(buf.data() + pos);
    pos += 8;
    return true;
  }
  bool u8_(u8* out) {
    if (buf.size() - pos < 1) return false;
    *out = static_cast<u8>(buf[pos]);
    pos += 1;
    return true;
  }
  std::string_view rest() const { return buf.substr(pos); }
};

bool known_type(u8 t) {
  switch (static_cast<Type>(t)) {
    case Type::Hello:
    case Type::Offer:
    case Type::Ack:
    case Type::Epoch:
    case Type::Seal:
    case Type::Bye:
      return true;
  }
  return false;
}

}  // namespace

std::string Token::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (int i = 15; i >= 0; --i) {
    const u64 word = i >= 8 ? hi : lo;
    const int nib = (i % 8) * 8;
    s.push_back(kHex[(word >> (nib + 4)) & 0xf]);
    s.push_back(kHex[(word >> nib) & 0xf]);
  }
  return s;
}

u64 checksum(Type type, u32 seq, const void* payload, size_t len) noexcept {
  u8 head[5];
  head[0] = static_cast<u8>(type);
  for (int i = 0; i < 4; ++i)
    head[1 + i] = static_cast<u8>((seq >> (8 * i)) & 0xff);
  const u64 seed = spool::fnv1a(head, sizeof head);
  return spool::fnv1a(payload, len, seed);
}

std::string encode(Type type, u32 seq, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic, sizeof kMagic);
  out.push_back(static_cast<char>(type));
  put_u32(&out, seq);
  put_u64(&out, payload.size());
  put_u64(&out, checksum(type, seq, payload.data(), payload.size()));
  out.append(payload);
  return out;
}

std::string encode_hello(const Token& token, u64 resume_seq,
                         std::string_view name) {
  std::string p;
  put_u32(&p, kProtoVersion);
  put_u64(&p, token.hi);
  put_u64(&p, token.lo);
  put_u64(&p, resume_seq);
  p.append(name.substr(0, kMaxNameBytes));
  return encode(Type::Hello, 0, p);
}

std::string encode_offer(u32 num_workers, u32 seq) {
  std::string p;
  put_u32(&p, num_workers);
  return encode(Type::Offer, seq, p);
}

std::string encode_ack(Status status, u64 acked_seq,
                       std::string_view message) {
  std::string p;
  p.push_back(static_cast<char>(status));
  put_u64(&p, acked_seq);
  p.append(message);
  return encode(Type::Ack, 0, p);
}

std::string encode_epoch(u32 seq, u64 spool_offset,
                         std::string_view spool_frame) {
  std::string p;
  p.reserve(8 + spool_frame.size());
  put_u64(&p, spool_offset);
  p.append(spool_frame);
  return encode(Type::Epoch, seq, p);
}

EndKind end_kind(spool::Step stop) {
  switch (stop) {
    case spool::Step::Frame:
    case spool::Step::End: return EndKind::Clean;
    case spool::Step::TornHeader: return EndKind::TornHeader;
    case spool::Step::Garbled: return EndKind::Garbled;
    case spool::Step::Overrun:
    case spool::Step::TornPayload: return EndKind::Overrun;
  }
  return EndKind::Clean;
}

spool::Step tail_step(EndKind end) {
  switch (end) {
    case EndKind::Clean: return spool::Step::End;
    case EndKind::TornHeader: return spool::Step::TornHeader;
    case EndKind::Garbled: return spool::Step::Garbled;
    case EndKind::Overrun: return spool::Step::Overrun;
  }
  return spool::Step::End;
}

std::string encode_seal(u32 seq, EndKind end, u64 end_offset, u64 end_len) {
  std::string p;
  p.push_back(static_cast<char>(end));
  put_u64(&p, end_offset);
  put_u64(&p, end_len);
  return encode(Type::Seal, seq, p);
}

std::string encode_bye(u32 seq) { return encode(Type::Bye, seq, {}); }

bool decode_hello(std::string_view payload, HelloMsg* out,
                  std::string* error) {
  Reader r{payload};
  if (!r.u32_(&out->proto) || !r.u64_(&out->token.hi) ||
      !r.u64_(&out->token.lo) || !r.u64_(&out->resume_seq)) {
    *error = "short HELLO payload";
    return false;
  }
  const std::string_view name = r.rest();
  if (name.size() > kMaxNameBytes) {
    *error = "HELLO name too long";
    return false;
  }
  for (char c : name) {
    if (static_cast<u8>(c) < 0x20 || static_cast<u8>(c) > 0x7e) {
      *error = "HELLO name has non-printable bytes";
      return false;
    }
  }
  out->name.assign(name);
  return true;
}

bool decode_offer(std::string_view payload, OfferMsg* out,
                  std::string* error) {
  Reader r{payload};
  if (!r.u32_(&out->num_workers) || !r.rest().empty()) {
    *error = "malformed OFFER payload";
    return false;
  }
  if (out->num_workers == 0 || out->num_workers > 4096) {
    *error = "implausible OFFER worker count " +
             std::to_string(out->num_workers);
    return false;
  }
  return true;
}

bool decode_ack(std::string_view payload, AckMsg* out, std::string* error) {
  Reader r{payload};
  u8 status = 0;
  if (!r.u8_(&status) || !r.u64_(&out->acked_seq)) {
    *error = "short ACK payload";
    return false;
  }
  if (status > static_cast<u8>(Status::SessionErr)) {
    *error = "unknown ACK status " + std::to_string(status);
    return false;
  }
  out->status = static_cast<Status>(status);
  out->message.assign(r.rest());
  return true;
}

bool decode_epoch(std::string_view payload, EpochMsg* out,
                  std::string* error) {
  Reader r{payload};
  if (!r.u64_(&out->spool_offset)) {
    *error = "short EPOCH payload";
    return false;
  }
  out->spool_frame = r.rest();
  if (out->spool_frame.size() < spool::kFrameHeaderBytes) {
    *error = "EPOCH carries no complete spool frame";
    return false;
  }
  return true;
}

bool decode_seal(std::string_view payload, SealMsg* out, std::string* error) {
  Reader r{payload};
  u8 end = 0;
  if (!r.u8_(&end) || !r.u64_(&out->end_offset) || !r.u64_(&out->end_len) ||
      !r.rest().empty()) {
    *error = "malformed SEAL payload";
    return false;
  }
  if (end > static_cast<u8>(EndKind::Overrun)) {
    *error = "unknown SEAL end kind " + std::to_string(end);
    return false;
  }
  out->end = static_cast<EndKind>(end);
  return true;
}

void Decoder::feed(std::string_view bytes) {
  if (poisoned_) return;
  // Compact before the buffer doubles past the consumed prefix, so a
  // long-lived connection never accretes dead bytes.
  if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(bytes);
}

Decoder::Result Decoder::next(Frame* out) {
  if (poisoned_) return Result::Poison;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kHeaderBytes) return Result::Need;
  const char* h = buf_.data() + consumed_;
  if (std::memcmp(h, kMagic, sizeof kMagic) != 0) {
    poisoned_ = true;
    error_ = "bad wire magic";
    return Result::Poison;
  }
  const u8 type = static_cast<u8>(h[4]);
  if (!known_type(type)) {
    poisoned_ = true;
    error_ = "unknown wire frame type " + std::to_string(type);
    return Result::Poison;
  }
  const u32 seq = le32_at(h + 5);
  const u64 payload_len = le64_at(h + 9);
  if (payload_len > kMaxPayload) {
    // Rejected before any allocation sized from the hostile field.
    poisoned_ = true;
    error_ = "implausible wire payload length " + std::to_string(payload_len);
    return Result::Poison;
  }
  if (avail - kHeaderBytes < payload_len) return Result::Need;
  const u64 stored = le64_at(h + 4 + 1 + 4 + 8);
  const char* payload = h + kHeaderBytes;
  if (checksum(static_cast<Type>(type), seq, payload,
               static_cast<size_t>(payload_len)) != stored) {
    poisoned_ = true;
    error_ = "wire frame checksum mismatch";
    return Result::Poison;
  }
  out->type = static_cast<Type>(type);
  out->seq = seq;
  out->payload =
      std::string_view(payload, static_cast<size_t>(payload_len));
  consumed_ += kHeaderBytes + static_cast<size_t>(payload_len);
  return Result::Frame;
}

}  // namespace gg::serve::wire
