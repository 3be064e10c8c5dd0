// The record schema: each record type's fields, listed once, in the order
// every encoding stores them. The text, GGTB3 (.ggbin) and GGSPOOL1 record
// codecs (trace/record_codec.hpp) are all derived from these lists.
//
// Each field has a kind. The kind fixes the field's native width and its
// validity rule, and the rule is the same in every codec:
//
//   U64, U32, U16  unsigned integer; a stored value wider than the member's
//                  type is a malformed record
//   Bool           any stored value; nonzero reads as true
//   Enum<Max>      0..Max; a larger value is a malformed record
//   Parent         a task uid, or kNoTask for "no parent"
//   Counters       the four-u64 counters group
//
// How wide a kind is on disk is the codec's own policy, not the schema's:
// text prints decimals (`-` for a kNoTask parent), GGTB3 widens every field
// narrower than 32 bits to a u32, GGSPOOL1 keeps native widths.
#pragma once

#include <array>
#include <cstddef>
#include <tuple>
#include <type_traits>

#include "trace/records.hpp"

namespace gg::schema {

enum class Kind : u8 { U64, U32, U16, Bool, Enum, Parent, Counters };

namespace detail {
template <class T> struct MemberOf;
template <class T, class Rec> struct MemberOf<T Rec::*> { using type = T; };

template <Kind K, class T>
constexpr bool kind_fits() {
  switch (K) {
    case Kind::U64: return std::is_same_v<T, u64>;
    case Kind::U32: return std::is_same_v<T, u32>;
    case Kind::U16: return std::is_same_v<T, u16>;
    case Kind::Bool: return std::is_same_v<T, bool>;
    case Kind::Parent: return std::is_same_v<T, TaskId>;
    case Kind::Counters: return std::is_same_v<T, Counters>;
    case Kind::Enum:
      if constexpr (std::is_enum_v<T>) {
        return std::is_same_v<std::underlying_type_t<T>, u8>;
      } else {
        return false;
      }
  }
  return false;
}
}  // namespace detail

/// One field: its kind and the record member it reads and writes.
template <Kind K, auto Member, u64 Max = 0>
struct Field {
  using Type = typename detail::MemberOf<decltype(Member)>::type;
  static_assert(detail::kind_fits<K, Type>(),
                "field kind does not match the member's type");
  static constexpr Kind kind = K;
  static constexpr auto member = Member;
  static constexpr u64 max = Max;  ///< Enum only: largest valid value
};

template <auto M> using U64 = Field<Kind::U64, M>;
template <auto M> using U32 = Field<Kind::U32, M>;
template <auto M> using U16 = Field<Kind::U16, M>;
template <auto M> using Bool = Field<Kind::Bool, M>;
template <auto M, u64 Max> using Enum = Field<Kind::Enum, M, Max>;
template <auto M> using Parent = Field<Kind::Parent, M>;
template <auto M> using CountersGroup = Field<Kind::Counters, M>;

/// Per record type: its names and its field list. `of` selects the
/// record's vector in a Trace or a spool RecordBuffer.
template <class Rec> struct Record;

template <> struct Record<TaskRec> {
  static constexpr const char* tag = "task";       ///< text record kind
  static constexpr const char* name = "task";      ///< diagnostics
  static constexpr const char* section = "tasks";  ///< GGTB3 section
  using R = TaskRec;
  using Fields = std::tuple<U64<&R::uid>, Parent<&R::parent>,
                            U32<&R::child_index>, U32<&R::src>,
                            U64<&R::create_time>, U16<&R::create_core>,
                            U64<&R::creation_cost>, Bool<&R::inlined>>;
  static auto& of(auto& records) { return records.tasks; }
};

template <> struct Record<FragmentRec> {
  static constexpr const char* tag = "frag";
  static constexpr const char* name = "fragment";
  static constexpr const char* section = "fragments";
  static constexpr const char* enum_fault = "bad fragment end reason";
  using R = FragmentRec;
  using Fields = std::tuple<U64<&R::task>, U32<&R::seq>, U64<&R::start>,
                            U64<&R::end>, U16<&R::core>,
                            Enum<&R::end_reason, 3>, U64<&R::end_ref>,
                            CountersGroup<&R::counters>>;
  static auto& of(auto& records) { return records.fragments; }
};

template <> struct Record<JoinRec> {
  static constexpr const char* tag = "join";
  static constexpr const char* name = "join";
  static constexpr const char* section = "joins";
  using R = JoinRec;
  using Fields = std::tuple<U64<&R::task>, U32<&R::seq>, U64<&R::start>,
                            U64<&R::end>, U16<&R::core>>;
  static auto& of(auto& records) { return records.joins; }
};

template <> struct Record<LoopRec> {
  static constexpr const char* tag = "loop";
  static constexpr const char* name = "loop";
  static constexpr const char* section = "loops";
  static constexpr const char* enum_fault = "bad loop schedule";
  using R = LoopRec;
  using Fields =
      std::tuple<U64<&R::uid>, U64<&R::enclosing_task>, U32<&R::src>,
                 Enum<&R::sched, 2>, U64<&R::chunk_param>,
                 U64<&R::iter_begin>, U64<&R::iter_end>,
                 U16<&R::num_threads>, U16<&R::starting_thread>,
                 U32<&R::seq>, U64<&R::start>, U64<&R::end>>;
  static auto& of(auto& records) { return records.loops; }
};

template <> struct Record<ChunkRec> {
  static constexpr const char* tag = "chunk";
  static constexpr const char* name = "chunk";
  static constexpr const char* section = "chunks";
  using R = ChunkRec;
  using Fields = std::tuple<U64<&R::loop>, U16<&R::thread>, U16<&R::core>,
                            U32<&R::seq_on_thread>, U64<&R::iter_begin>,
                            U64<&R::iter_end>, U64<&R::start>, U64<&R::end>,
                            CountersGroup<&R::counters>>;
  static auto& of(auto& records) { return records.chunks; }
};

template <> struct Record<BookkeepRec> {
  static constexpr const char* tag = "book";
  static constexpr const char* name = "bookkeep";
  static constexpr const char* section = "bookkeeps";
  using R = BookkeepRec;
  using Fields = std::tuple<U64<&R::loop>, U16<&R::thread>, U16<&R::core>,
                            U32<&R::seq_on_thread>, U64<&R::start>,
                            U64<&R::end>, Bool<&R::got_chunk>>;
  static auto& of(auto& records) { return records.bookkeeps; }
};

template <> struct Record<DependRec> {
  static constexpr const char* tag = "dep";
  static constexpr const char* name = "depend";
  static constexpr const char* section = "depends";
  using R = DependRec;
  using Fields = std::tuple<U64<&R::pred>, U64<&R::succ>>;
  static auto& of(auto& records) { return records.depends; }
};

template <> struct Record<WorkerStatsRec> {
  static constexpr const char* tag = "wstat";
  static constexpr const char* name = "worker stats";
  static constexpr const char* section = "worker stats";
  using R = WorkerStatsRec;
  using Fields =
      std::tuple<U16<&R::worker>, U64<&R::tasks_spawned>,
                 U64<&R::tasks_executed>, U64<&R::tasks_inlined>,
                 U64<&R::steals>, U64<&R::steal_failures>,
                 U64<&R::cas_failures>, U64<&R::deque_pushes>,
                 U64<&R::deque_pops>, U64<&R::deque_resizes>,
                 U64<&R::taskwait_helps>, U64<&R::idle_ns>,
                 U64<&R::trace_bytes>>;
  static auto& of(auto& records) { return records.worker_stats; }
};

/// Calls f(std::type_identity<Rec>{}) for the eight record types, in the
/// order every encoding stores them.
template <class F>
constexpr void for_each_record(F&& f) {
  f(std::type_identity<TaskRec>{});
  f(std::type_identity<FragmentRec>{});
  f(std::type_identity<JoinRec>{});
  f(std::type_identity<LoopRec>{});
  f(std::type_identity<ChunkRec>{});
  f(std::type_identity<BookkeepRec>{});
  f(std::type_identity<DependRec>{});
  f(std::type_identity<WorkerStatsRec>{});
}

/// Calls f(vector) for each record vector of a Trace or a spool
/// RecordBuffer, in the same order.
template <class Records, class F>
constexpr void for_each_vector(Records& records, F&& f) {
  for_each_record([&](auto type) {
    f(Record<typename decltype(type)::type>::of(records));
  });
}

/// In-memory bytes of every record of a Trace or RecordBuffer (sizeof-based:
/// the recorder's self-measurement unit).
template <class Records>
u64 record_bytes(const Records& records) {
  u64 n = 0;
  for_each_vector(records,
                  [&](const auto& v) { n += v.size() * sizeof(v[0]); });
  return n;
}

template <class Rec>
inline constexpr size_t kFieldCount =
    std::tuple_size_v<typename Record<Rec>::Fields>;

/// Field visiting order: positions into Record<Rec>::Fields.
template <class Rec>
using Order = std::array<size_t, kFieldCount<Rec>>;

template <class Rec>
constexpr Order<Rec> schema_order() {
  Order<Rec> order{};
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

/// The one layout difference between the encodings. GGSPOOL1 stores a
/// fragment's counters group right after `core`, ahead of end_reason and
/// end_ref; text and GGTB3 store it last, where the schema lists it. Every
/// spool written so far has that layout, so for on-disk compatibility the
/// spool codec visits fragment fields in this order instead.
template <class Rec>
inline constexpr Order<Rec> kSpoolOrder = schema_order<Rec>();
template <>  // task, seq, start, end, core, counters, end_reason, end_ref
inline constexpr Order<FragmentRec> kSpoolOrder<FragmentRec> = {
    0, 1, 2, 3, 4, 7, 5, 6};
static_assert(std::tuple_element_t<7, Record<FragmentRec>::Fields>::kind ==
              Kind::Counters);

}  // namespace gg::schema
