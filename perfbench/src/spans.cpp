#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "env.hpp"

namespace ggbench {

uint64_t Tracer::open(const std::string& name, uint64_t parent, uint64_t op,
                      bool starts_op) {
  if (!enabled_) return 0;
  const uint64_t thread_key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.name = name;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.op = starts_op ? r.id : op;
  const auto [it, inserted] = thread_ids_.emplace(
      thread_key, static_cast<uint32_t>(thread_ids_.size() + 1));
  r.tid = it->second;
  r.start_ns = now_ns();
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void Tracer::close(uint64_t id) {
  if (id == 0) return;
  const int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& other_json,
                               std::string* error) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<int64_t> self = self_times_ns(all);
  int64_t base = 0;
  for (const SpanRecord& s : all) {
    if (base == 0 || s.start_ns < base) base = s.start_ns;
  }
  std::ofstream os(path);
  if (!os) {
    *error = "cannot write " + path;
    return false;
  }
  auto us = [](int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    return std::string(buf);
  };
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_json
     << ", \"traceEvents\": [";
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_quote(s.name)
       << ", \"cat\": " << json_quote(layer)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << us(s.start_ns - base)
       << ", \"dur\": " << us(s.duration_ns()) << ", \"args\": {\"id\": "
       << s.id << ", \"parent\": " << s.parent << ", \"op\": " << s.op
       << ", \"self_us\": " << us(self[i]) << "}}";
  }
  os << "\n]}\n";
  os.flush();
  if (!os) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

Span::Span(Tracer& tracer, const char* name, const Span* parent,
           bool starts_op)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  const uint64_t parent_id = parent != nullptr ? parent->id_ : 0;
  const uint64_t parent_op = parent != nullptr ? parent->op_ : 0;
  id_ = tracer_.open(name, parent_id, parent_op, starts_op);
  op_ = starts_op ? id_ : parent_op;
}

Span::~Span() { tracer_.close(id_); }

std::vector<int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t p = spans[i].parent;
    if (p >= 1 && p <= spans.size()) children[p - 1].push_back(i);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::vector<double> per_op_self_ns(const std::vector<SpanRecord>& spans,
                                   const std::vector<int64_t>& self_ns,
                                   const std::string& op_name,
                                   const std::string& name) {
  std::map<uint64_t, double> by_op;
  for (const SpanRecord& s : spans) {
    if (s.name == op_name && s.op == s.id) by_op.emplace(s.id, 0.0);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    auto it = by_op.find(spans[i].op);
    if (it != by_op.end()) it->second += static_cast<double>(self_ns[i]);
  }
  std::vector<double> out;
  out.reserve(by_op.size());
  for (const auto& [op, ns] : by_op) out.push_back(ns);
  return out;
}

std::vector<double> durations_ns(const std::vector<SpanRecord>& spans,
                                  const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()));
  }
  return out;
}

}  // namespace ggbench
