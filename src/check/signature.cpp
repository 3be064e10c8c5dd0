#include "check/signature.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"

namespace gg::check {

namespace {

/// Creation path of every task: chain of child indices from the root. The
/// root's path is "R"; its third child is "R.2"; and so on.
std::unordered_map<TaskId, std::string> task_paths(const Trace& trace) {
  std::unordered_map<TaskId, std::string> paths;
  paths.reserve(trace.tasks.size());
  // Tasks are sorted by uid after finalize(), but parents do not always
  // have smaller uids than children across engines. Iterate to fixpoint;
  // depth is tiny, so this converges in a few passes.
  bool progress = true;
  while (progress && paths.size() < trace.tasks.size()) {
    progress = false;
    for (const TaskRec& t : trace.tasks) {
      if (paths.count(t.uid) != 0) continue;
      if (t.parent == kNoTask) {
        paths.emplace(t.uid, "R");
        progress = true;
        continue;
      }
      auto it = paths.find(t.parent);
      if (it == paths.end()) continue;
      paths.emplace(t.uid,
                    it->second + "." + std::to_string(t.child_index));
      progress = true;
    }
  }
  GG_CHECK_MSG(paths.size() == trace.tasks.size(),
               "trace contains tasks with unknown parents");
  return paths;
}

std::string str_of(const Trace& trace, StrId id) {
  return std::string(trace.strings.get(id));
}

}  // namespace

std::string canonical_signature(const Trace& trace) {
  GG_CHECK(trace.finalized());
  const auto paths = task_paths(trace);
  const auto path_of = [&paths](TaskId uid) -> const std::string& {
    auto it = paths.find(uid);
    GG_CHECK_MSG(it != paths.end(), "record references an unknown task");
    return it->second;
  };
  // Loop uid -> (root loop seq, schedule) for fragment refs and chunk keys.
  std::unordered_map<LoopId, const LoopRec*> loop_of;
  for (const LoopRec& l : trace.loops) loop_of.emplace(l.uid, &l);
  const auto loop_seq = [&loop_of](LoopId uid) -> u32 {
    auto it = loop_of.find(uid);
    GG_CHECK_MSG(it != loop_of.end(), "record references an unknown loop");
    return it->second->seq;
  };

  std::map<std::string, std::string> task_lines;  // path -> line
  for (const TaskRec& t : trace.tasks) {
    const std::string& p = path_of(t.uid);
    std::ostringstream line;
    line << "task " << p << " src=" << str_of(trace, t.src) << " parent="
         << (t.parent == kNoTask ? std::string("-") : path_of(t.parent))
         << " frags=";
    for (const FragmentRec& f : trace.fragments_span(t.uid)) {
      switch (f.end_reason) {
        case FragmentEnd::Fork:
          line << "F(" << path_of(static_cast<TaskId>(f.end_ref)) << ")";
          break;
        case FragmentEnd::Join:
          line << "J(" << f.end_ref << ")";
          break;
        case FragmentEnd::Loop:
          line << "L(" << loop_seq(static_cast<LoopId>(f.end_ref)) << ")";
          break;
        case FragmentEnd::TaskEnd:
          line << "E";
          break;
      }
      line << ";";
    }
    line << " joins=" << trace.joins_span(t.uid).size();
    task_lines.emplace(p, line.str());
  }

  std::vector<std::string> dep_lines;
  for (const DependRec& d : trace.depends) {
    dep_lines.push_back("dep " + path_of(d.pred) + " -> " + path_of(d.succ));
  }
  std::sort(dep_lines.begin(), dep_lines.end());
  dep_lines.erase(std::unique(dep_lines.begin(), dep_lines.end()),
                  dep_lines.end());

  std::map<u32, std::string> loop_lines;  // root loop seq -> lines
  for (const LoopRec& l : trace.loops) {
    std::ostringstream line;
    line << "loop " << l.seq << " task=" << path_of(l.enclosing_task)
         << " src=" << str_of(trace, l.src) << " sched=" << to_string(l.sched)
         << " chunk=" << l.chunk_param << " range=[" << l.iter_begin << ","
         << l.iter_end << ") team=" << l.num_threads << "\n";
    const auto chunks = trace.chunks_span(l.uid);
    if (l.sched == ScheduleKind::Static) {
      // Static: ranges AND thread assignment are schedule-independent.
      std::map<u16, std::vector<std::pair<u64, u64>>> per_thread;
      for (const ChunkRec& c : chunks) {
        per_thread[c.thread].emplace_back(c.iter_begin, c.iter_end);
      }
      for (auto& [t, ranges] : per_thread) {
        std::sort(ranges.begin(), ranges.end());
        line << "  chunks t" << t << " =";
        for (const auto& [a, b] : ranges) line << " " << a << "-" << b;
        line << "\n";
      }
    } else {
      // Dynamic/guided: only the range multiset is schedule-independent.
      std::vector<std::pair<u64, u64>> ranges;
      for (const ChunkRec& c : chunks) {
        ranges.emplace_back(c.iter_begin, c.iter_end);
      }
      std::sort(ranges.begin(), ranges.end());
      line << "  chunks * =";
      for (const auto& [a, b] : ranges) line << " " << a << "-" << b;
      line << "\n";
    }
    loop_lines.emplace(l.seq, line.str());
  }

  std::ostringstream out;
  out << "tasks=" << trace.tasks.size() << " loops=" << trace.loops.size()
      << " chunks=" << trace.chunks.size() << "\n";
  for (const auto& [p, line] : task_lines) out << line << "\n";
  for (const std::string& d : dep_lines) out << d << "\n";
  for (const auto& [s, line] : loop_lines) out << line;
  return out.str();
}

std::string first_signature_diff(const std::string& a, const std::string& b) {
  if (a == b) return {};
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(signatures differ only in line order)";
    if (!ga) return "(end) | " + lb;
    if (!gb) return la + " | (end)";
    if (la != lb) return la + " | " + lb;
  }
}

}  // namespace gg::check
