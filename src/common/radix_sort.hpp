#pragma once

// A parallel, stable LSD radix sort of (hi, lo, index) keys: Trace::finalize
// orders every record vector with it, and compute_metrics and
// source_profile group grain rows with it (par_for_key_runs).

#include <array>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/par_for.hpp"

namespace gg {

/// A sort key, (hi, lo), and the position of its item in the unsorted
/// input.
template <class Lo>
struct SortKey {
  u64 hi;
  Lo lo;
  u32 index;
};

/// Sorts keys[0, n) by (hi, lo), keeping equal keys in their current
/// order. The keys start in arrival (index) order, so the result is the
/// (hi, lo, index) order: the permutation std::stable_sort by (hi, lo)
/// gives, duplicate keys included.
///
/// A least-significant-digit radix sort, 11 bits a pass, lo's digits then
/// hi's, skipping every digit in which all keys agree. A pass counts the
/// digits of each par_for_blocks block in parallel, turns the counts into
/// one output offset per (block, digit), and scatters every block in
/// order. Each pass is a stable counting sort whatever the partition, so
/// every thread count gives the same result. Returns the buffer holding
/// the sorted keys.
template <class Key>
std::unique_ptr<Key[]> radix_sort(std::unique_ptr<Key[]> keys, size_t n,
                                  int threads) {
  if (n < 2) return keys;
  constexpr int kDigitBits = 11;
  constexpr u64 kDigitMask = (u64{1} << kDigitBits) - 1;
  const size_t blocks = par_block_count(n, threads);

  // Bits in which some key differs from the first one.
  std::vector<std::pair<u64, u64>> block_diff(blocks);
  par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
    u64 diff_hi = 0, diff_lo = 0;
    for (size_t i = lo; i < hi; ++i) {
      diff_hi |= keys[i].hi ^ keys[0].hi;
      diff_lo |= static_cast<u64>(keys[i].lo ^ keys[0].lo);
    }
    block_diff[b] = {diff_hi, diff_lo};
  });
  u64 diff_hi = 0, diff_lo = 0;
  for (const auto& [hi, lo] : block_diff) {
    diff_hi |= hi;
    diff_lo |= lo;
  }

  std::unique_ptr<Key[]> scratch;
  std::vector<std::array<size_t, kDigitMask + 1>> offsets(blocks);
  auto pass = [&](auto digit) {
    if (!scratch) scratch = std::make_unique_for_overwrite<Key[]>(n);
    const Key* src = keys.get();
    Key* dst = scratch.get();
    par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
      offsets[b].fill(0);
      for (size_t i = lo; i < hi; ++i) ++offsets[b][digit(src[i])];
    });
    size_t next = 0;
    for (size_t d = 0; d <= kDigitMask; ++d) {
      for (size_t b = 0; b < blocks; ++b) {
        const size_t count = offsets[b][d];
        offsets[b][d] = next;
        next += count;
      }
    }
    par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i)
        dst[offsets[b][digit(src[i])]++] = src[i];
    });
    std::swap(keys, scratch);
  };
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if ((diff_lo >> shift & kDigitMask) == 0) continue;
    pass([shift](const Key& k) {
      return static_cast<size_t>(static_cast<u64>(k.lo) >> shift & kDigitMask);
    });
  }
  for (int shift = 0; shift < 64; shift += kDigitBits) {
    if ((diff_hi >> shift & kDigitMask) == 0) continue;
    pass([shift](const Key& k) {
      return static_cast<size_t>(k.hi >> shift & kDigitMask);
    });
  }
  return keys;
}

/// The keys of `items` in sorted order, each with its item's position.
/// `key(item)` returns a (u64, Lo) pair; the keys are built in parallel.
template <class Item, class KeyFn>
auto sorted_keys(const std::vector<Item>& items, int threads, KeyFn key) {
  using Lo = decltype(key(items.front()).second);
  const size_t n = items.size();
  GG_CHECK(n <= std::numeric_limits<u32>::max());
  auto keys = std::make_unique_for_overwrite<SortKey<Lo>[]>(n);
  par_for_blocks(n, threads, [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const auto [k_hi, k_lo] = key(items[i]);
      keys[i] = {k_hi, k_lo, static_cast<u32>(i)};
    }
  });
  return radix_sort(std::move(keys), n, threads);
}

/// Runs `fn(block, begin, end)` for each run [begin, end) of equal (hi, lo)
/// in the sorted keys[0, n), over the par_for_blocks blocks of [0, n): a
/// block takes the runs that start in it, so each run is one call on one
/// thread, and a block meets its runs in key order.
template <class Key, class Fn>
void par_for_key_runs(const Key* keys, size_t n, int threads, Fn&& fn) {
  auto same = [keys](size_t a, size_t b) {
    return keys[a].hi == keys[b].hi && keys[a].lo == keys[b].lo;
  };
  par_for_blocks(n, threads, [&](size_t b, size_t lo, size_t hi) {
    size_t begin = lo;
    while (begin < hi && begin != 0 && same(begin, begin - 1)) ++begin;
    while (begin < hi) {
      size_t end = begin + 1;
      while (end < n && same(end, begin)) ++end;
      fn(b, begin, end);
      begin = end;
    }
  });
}

}  // namespace gg
