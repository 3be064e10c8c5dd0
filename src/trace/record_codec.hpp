// The record codecs, derived from the schema (trace/record_schema.hpp):
//
//   text      append_text / read_text over a Cursor
//   GGTB3     put<Ggtb3> / get<Ggtb3>, fixed stride kRecordBytes<Ggtb3, Rec>
//   GGSPOOL1  put<Spool> / get<Spool>, fixed stride kRecordBytes<Spool, Rec>
//
// Each codec owns only its width policy; field order and validity rules
// come from the schema (with the schema's one spool-order exception).
// Internal to src/trace.
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "trace/record_schema.hpp"

namespace gg::codec {

using schema::Kind;
using schema::Record;

// --- binary codecs ---------------------------------------------------------

// Both binary encodings store integers little-endian and are read and
// written with plain memcpy loads and stores.
static_assert(std::endian::native == std::endian::little,
              "the binary trace encodings assume a little-endian host");

/// A kind's native width in bytes.
constexpr size_t native_width(Kind k) {
  switch (k) {
    case Kind::U64:
    case Kind::Parent: return 8;
    case Kind::U32: return 4;
    case Kind::U16: return 2;
    case Kind::Bool:
    case Kind::Enum: return 1;
    case Kind::Counters: return 32;
  }
  return 0;
}

/// Visits fields in schema order: text and GGTB3.
struct SchemaOrder {
  template <class Rec>
  static constexpr schema::Order<Rec> order = schema::schema_order<Rec>();
};

/// GGTB3 (.ggbin): every field narrower than 32 bits is widened to a u32.
struct Ggtb3 : SchemaOrder {
  static constexpr size_t width(Kind k) {
    return std::max<size_t>(native_width(k), 4);
  }
};

/// GGSPOOL1 epoch payloads: native widths, in the spool's field order.
struct Spool {
  static constexpr size_t width(Kind k) { return native_width(k); }
  template <class Rec>
  static constexpr schema::Order<Rec> order = schema::kSpoolOrder<Rec>;
};

/// Calls f(Field{}) for each field of Rec in encoding Enc's order.
template <class Enc, class Rec, class F>
constexpr void visit_fields(F&& f) {
  using Fields = typename Record<Rec>::Fields;
  [&]<size_t... I>(std::index_sequence<I...>) {
    (f(std::tuple_element_t<Enc::template order<Rec>[I], Fields>{}), ...);
  }(std::make_index_sequence<schema::kFieldCount<Rec>>{});
}

/// Encoded size of one Rec under encoding Enc; every record is fixed-size.
template <class Enc, class Rec>
inline constexpr size_t kRecordBytes = [] {
  size_t n = 0;
  visit_fields<Enc, Rec>([&](auto f) { n += Enc::width(decltype(f)::kind); });
  return n;
}();

/// Why a decoded record is malformed.
enum class Fault : u8 {
  None,
  Range,  ///< an integer wider than its member's type
  Enum,   ///< an enum past its schema maximum
};

/// The GGTB3 diagnostic message for a malformed Rec.
template <class Rec>
std::string fault_message(Fault fault) {
  if constexpr (requires { Record<Rec>::enum_fault; }) {
    if (fault == Fault::Enum) return Record<Rec>::enum_fault;
  }
  return std::string("malformed ") + Record<Rec>::name + " record";
}

namespace detail {

template <size_t W>
using Word = std::conditional_t<
    W == 8, u64,
    std::conditional_t<W == 4, u32, std::conditional_t<W == 2, u16, u8>>>;

template <size_t W>
inline void store(char*& p, u64 v) {
  const Word<W> w = static_cast<Word<W>>(v);
  std::memcpy(p, &w, W);
  p += W;
}

template <size_t W>
inline u64 load(const char*& p) {
  Word<W> w;
  std::memcpy(&w, p, W);
  p += W;
  return w;
}

/// A scalar field's value as the integer every codec stores.
template <class F, class Rec>
inline u64 value_of(const Rec& r) {
  if constexpr (F::kind == Kind::Bool) {
    return (r.*F::member) ? 1 : 0;
  } else {
    return static_cast<u64>(r.*F::member);
  }
}

/// The schema's validity rule for a scalar field's stored integer.
template <class F>
constexpr bool in_range(u64 v) {
  if constexpr (F::kind == Kind::Enum) {
    return v <= F::max;
  } else if constexpr (F::kind == Kind::Bool || sizeof(typename F::Type) == 8) {
    return true;
  } else {
    return v <= std::numeric_limits<typename F::Type>::max();
  }
}

template <class F, class Rec>
inline void assign(Rec& r, u64 v) {
  using T = typename F::Type;
  if constexpr (F::kind == Kind::Bool) {
    r.*F::member = v != 0;
  } else if constexpr (F::kind == Kind::Enum) {
    r.*F::member = static_cast<T>(static_cast<std::underlying_type_t<T>>(v));
  } else {
    r.*F::member = static_cast<T>(v);
  }
}

}  // namespace detail

/// Writes one record at `p` (kRecordBytes<Enc, Rec> bytes); returns the end.
template <class Enc, class Rec>
inline char* put(char* p, const Rec& r) {
  visit_fields<Enc, Rec>([&](auto f) {
    using F = decltype(f);
    if constexpr (F::kind == Kind::Counters) {
      const Counters& c = r.*F::member;
      detail::store<8>(p, c.compute);
      detail::store<8>(p, c.stall);
      detail::store<8>(p, c.cache_misses);
      detail::store<8>(p, c.bytes_accessed);
    } else {
      detail::store<Enc::width(F::kind)>(p, detail::value_of<F>(r));
    }
  });
  return p;
}

/// Reads one record from kRecordBytes<Enc, Rec> bytes at `p`. The caller
/// has bounds-checked the whole record. A Fault other than None means the
/// record is malformed and `r` holds garbage.
template <class Enc, class Rec>
inline Fault get(const char* p, Rec& r) {
  Fault fault = Fault::None;
  visit_fields<Enc, Rec>([&](auto f) {
    using F = decltype(f);
    if constexpr (F::kind == Kind::Counters) {
      Counters& c = r.*F::member;
      c.compute = detail::load<8>(p);
      c.stall = detail::load<8>(p);
      c.cache_misses = detail::load<8>(p);
      c.bytes_accessed = detail::load<8>(p);
    } else {
      const u64 v = detail::load<Enc::width(F::kind)>(p);
      if (!detail::in_range<F>(v) && fault == Fault::None) {
        fault = F::kind == Kind::Enum ? Fault::Enum : Fault::Range;
      }
      detail::assign<F>(r, v);
    }
  });
  return fault;
}

// --- text codec ------------------------------------------------------------

inline void append_u64(std::string& out, u64 v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Appends one record line: "<tag> <field> <field> ...\n".
template <class Rec>
void append_text(std::string& out, const Rec& r) {
  out += Record<Rec>::tag;
  visit_fields<SchemaOrder, Rec>([&](auto f) {
    using F = decltype(f);
    out += ' ';
    if constexpr (F::kind == Kind::Counters) {
      const Counters& c = r.*F::member;
      append_u64(out, c.compute);
      out += ' ';
      append_u64(out, c.stall);
      out += ' ';
      append_u64(out, c.cache_misses);
      out += ' ';
      append_u64(out, c.bytes_accessed);
    } else if constexpr (F::kind == Kind::Parent) {
      if (r.*F::member == kNoTask) {
        out += '-';
      } else {
        append_u64(out, r.*F::member);
      }
    } else {
      append_u64(out, detail::value_of<F>(r));
    }
  });
  out += '\n';
}

// Text field cursor. Replicates the extraction semantics of
// `istringstream >> field`, which define the text format's diagnostics:
// skip C-locale whitespace, optional sign, greedy decimal digits, failure on
// missing digits or overflow, strtoull-style wraparound for negative fields
// read into a 64-bit unsigned target, and the position resting on the first
// unconsumed character. Once one extraction fails, every later one fails
// too (failbit behavior), so a whole-record `if (!(c >> a >> b >> ...))`
// behaves exactly like the same istream extraction.

inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' ||
         c == '\n';
}

class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}
  explicit operator bool() const { return ok_; }

  Cursor& operator>>(std::string_view& out) {
    if (!skip_ws()) return *this;
    const size_t start = pos_;
    while (pos_ < s_.size() && !is_space(s_[pos_])) ++pos_;
    out = s_.substr(start, pos_ - start);
    return *this;
  }

  Cursor& operator>>(u64& v) { return extract_unsigned(v); }
  Cursor& operator>>(u32& v) { return extract_unsigned(v); }
  Cursor& operator>>(u16& v) { return extract_unsigned(v); }

  Cursor& operator>>(int& v) {
    if (!skip_ws()) return *this;
    size_t p = pos_;
    if (s_[p] == '+') {  // from_chars rejects '+'; streams accept it
      ++p;
      if (p >= s_.size() || s_[p] < '0' || s_[p] > '9') {
        ok_ = false;
        return *this;
      }
    }
    const char* first = s_.data() + p;
    int out = 0;
    auto [ptr, ec] = std::from_chars(first, s_.data() + s_.size(), out);
    if (ptr == first) {
      ok_ = false;
      return *this;
    }
    pos_ = static_cast<size_t>(ptr - s_.data());
    if (ec != std::errc()) {
      ok_ = false;
      return *this;
    }
    v = out;
    return *this;
  }

  Cursor& operator>>(double& v) {
    if (!skip_ws()) return *this;
    size_t p = pos_;
    bool neg = false;
    if (s_[p] == '+' || s_[p] == '-') {
      neg = s_[p] == '-';
      ++p;
    }
    const char* first = s_.data() + p;
    double out = 0;
    auto [ptr, ec] = std::from_chars(first, s_.data() + s_.size(), out);
    if (ptr == first || ec != std::errc()) {
      ok_ = false;
      return *this;
    }
    pos_ = static_cast<size_t>(ptr - s_.data());
    v = neg ? -out : out;
    return *this;
  }

  /// Marks the record malformed (a field parsed but broke its rule).
  void fail() { ok_ = false; }

 private:
  // Positions on the next field; extraction at end-of-view fails like eof.
  bool skip_ws() {
    if (!ok_) return false;
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
    if (pos_ >= s_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <class T>
  Cursor& extract_unsigned(T& v) {
    if (!skip_ws()) return *this;
    size_t p = pos_;
    bool neg = false;
    if (s_[p] == '+' || s_[p] == '-') {
      neg = s_[p] == '-';
      ++p;
    }
    const char* first = s_.data() + p;
    u64 out = 0;
    auto [ptr, ec] = std::from_chars(first, s_.data() + s_.size(), out, 10);
    if (ptr == first) {
      ok_ = false;
      return *this;
    }
    pos_ = static_cast<size_t>(ptr - s_.data());
    if (ec != std::errc()) {  // magnitude overflowed even u64
      ok_ = false;
      return *this;
    }
    if (neg) out = 0 - out;  // strtoull wraparound, as num_get does
    if (out > std::numeric_limits<T>::max()) {
      ok_ = false;
      return *this;
    }
    v = static_cast<T>(out);
    return *this;
  }

  std::string_view s_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads the fields of one record line (after its tag). Flags and enums
/// are read as a signed int, as the stream extraction did; a parent is `-`
/// or a number parsed from its token alone (trailing junk ignored).
template <class Rec>
bool read_text(Cursor& c, Rec& r) {
  visit_fields<SchemaOrder, Rec>([&](auto f) {
    using F = decltype(f);
    if constexpr (F::kind == Kind::Counters) {
      Counters& k = r.*F::member;
      c >> k.compute >> k.stall >> k.cache_misses >> k.bytes_accessed;
    } else if constexpr (F::kind == Kind::Parent) {
      std::string_view tok;
      if (!(c >> tok)) return;
      if (tok == "-") {
        r.*F::member = kNoTask;
      } else if (Cursor num(tok); !(num >> r.*F::member)) {
        c.fail();
      }
    } else if constexpr (F::kind == Kind::Bool) {
      int v = 0;
      if (c >> v) r.*F::member = v != 0;
    } else if constexpr (F::kind == Kind::Enum) {
      int v = 0;
      if (!(c >> v)) return;
      if (v < 0 || !detail::in_range<F>(static_cast<u64>(v))) {
        c.fail();
        return;
      }
      detail::assign<F>(r, static_cast<u64>(v));
    } else {
      c >> r.*F::member;
    }
  });
  return static_cast<bool>(c);
}

}  // namespace gg::codec
