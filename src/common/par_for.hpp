#pragma once

// Minimal fork-join helper for the embarrassingly parallel metric passes.
//
// The pool is deliberately tiny: a static block partition over [0, n) with one
// std::thread per block and a join barrier. Each invocation owns its threads,
// so there is no shared state between passes and nothing for TSan to chase
// beyond the fork/join edges. Determinism falls out of the partition being a
// pure function of (n, threads): every index is processed exactly once and
// results are written to per-index slots or merged in block order by the
// caller.

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace gg {

/// Below this many items a parallel pass runs inline on the caller; thread
/// spawn/join overhead dwarfs the work for small traces (and keeps the unit
/// tests on the serial path by default).
inline constexpr size_t kParForMinItems = 4096;

/// Resolves a requested worker count. `requested > 0` is taken as-is;
/// `requested == 0` consults the GG_THREADS environment variable and then the
/// hardware concurrency, capped at 8 — the metric passes are memory-bound and
/// stop scaling well before large core counts.
inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("GG_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

/// The number of blocks t that par_for_blocks splits [0, n) into: 1 when
/// threads <= 1 or n < kParForMinItems, else min(threads, n). Callers that
/// keep per-block state size it with this.
inline size_t par_block_count(size_t n, int threads) {
  if (threads <= 1 || n < kParForMinItems) return 1;
  return std::min(static_cast<size_t>(threads), n);
}

/// Runs `fn(block, begin, end)` over a static block partition of [0, n),
/// each inner edge rounded down to a multiple of `align`: block b covers
/// [e(b), e(b+1)) with e(b) = n*b/t rounded down to `align`, e(t) = n and
/// t = par_block_count(n, threads). Blocks writing packed per-item bits
/// (std::vector<bool>, 64 to a word) pass align 64, so that no two blocks
/// write one word; a block may then be empty. The partition depends only on
/// (n, align, t), never on timing. Blocks run concurrently; block 0 runs on
/// the caller. The serial fallback (t == 1) is a single fn(0, 0, n) call, so
/// callers need no separate serial code path.
template <class Fn>
void par_for_aligned_blocks(size_t n, size_t align, int threads, Fn&& fn) {
  if (n == 0) return;
  const size_t t = par_block_count(n, threads);
  if (t == 1) {
    fn(size_t{0}, size_t{0}, n);
    return;
  }
  const auto edge = [n, t, align](size_t b) {
    return b == t ? n : n * b / t / align * align;
  };
  std::vector<std::thread> workers;
  workers.reserve(t - 1);
  for (size_t b = 1; b < t; ++b) {
    workers.emplace_back([&fn, &edge, b] { fn(b, edge(b), edge(b + 1)); });
  }
  fn(size_t{0}, size_t{0}, edge(1));
  for (auto& w : workers) w.join();
}

/// par_for_aligned_blocks with no rounding: block b covers
/// [n*b/t, n*(b+1)/t).
template <class Fn>
void par_for_blocks(size_t n, int threads, Fn&& fn) {
  par_for_aligned_blocks(n, 1, threads, std::forward<Fn>(fn));
}

/// Convenience wrapper: `fn(i)` for each i in [0, n), partitioned as above.
template <class Fn>
void par_for_each_index(size_t n, int threads, Fn&& fn) {
  par_for_blocks(n, threads, [&fn](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Runs `fn(s)` for each shard s in [0, nshards) with one thread per shard,
/// bypassing the kParForMinItems threshold — for coarse-grained work where
/// each shard index stands for a large block (the sharded graph/grain
/// builders). Shard 0 runs on the caller; callers size nshards to their
/// resolved thread count.
template <class Fn>
void par_for_shard(size_t nshards, Fn&& fn) {
  if (nshards == 0) return;
  if (nshards == 1) {
    fn(size_t{0});
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(nshards - 1);
  for (size_t s = 1; s < nshards; ++s) {
    workers.emplace_back([&fn, s] { fn(s); });
  }
  fn(size_t{0});
  for (auto& w : workers) w.join();
}

}  // namespace gg
