// ggtrace-convert — convert traces between the text (.ggtrace), binary
// (.ggbin) and crash-spool (.ggspool) formats; formats are chosen by file
// extension.
//
//   ggtrace-convert [--salvage] in.ggtrace out.ggbin
//   ggtrace-convert [--salvage] in.ggbin out.ggtrace
//   ggtrace-convert in.ggspool out.ggtrace     (recover, then convert)
//   ggtrace-convert in.ggbin out.ggspool       (re-spool a finalized trace)
//
// The input is validated before conversion; a malformed or structurally
// invalid trace fails (exit 1) naming the first bad record. With --salvage
// a damaged trace is repaired first (exit 3 when anything was repaired) and
// only an unsalvageable input fails (exit 4). A .ggspool input always takes
// the recovery path (as if --salvage were given): the recovery report, any
// crash provenance and supervisor diagnostic go to stderr, and a spool
// that recovers degraded converts with exit 3.
#include <cstdio>
#include <string>

#include "trace/salvage.hpp"
#include "trace/serialize.hpp"
#include "trace/spool.hpp"
#include "trace/validate.hpp"

namespace {

bool has_suffix(const std::string& s, const char* suf) {
  const std::string t(suf);
  return s.size() >= t.size() && s.compare(s.size() - t.size(), t.size(), t) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gg;
  bool salvage = false;
  int argi = 1;
  if (argi < argc && std::string(argv[argi]) == "--salvage") {
    salvage = true;
    ++argi;
  }
  if (argc - argi != 2) {
    std::fprintf(stderr,
                 "usage: %s [--salvage] <in.(ggtrace|ggbin|ggspool)> "
                 "<out.(ggtrace|ggbin|ggspool)>\n",
                 argv[0]);
    return 2;
  }
  const std::string in_path = argv[argi];
  const std::string out_path = argv[argi + 1];

  Trace trace;
  bool degraded = false;
  if (has_suffix(in_path, ".ggspool") || spool::spool_file_magic(in_path)) {
    std::string err;
    spool::RecoverResult rr = spool::recover_spool_file(in_path, &err);
    if (!rr.usable) {
      std::fprintf(stderr, "error: spool recovery failed: %s\n",
                   err.empty() ? rr.report.summary().c_str() : err.c_str());
      return 4;
    }
    std::fprintf(stderr, "%s\n", rr.report.summary().c_str());
    if (!rr.report.crash_reason.empty()) {
      std::fprintf(stderr, "crash provenance: %s\n",
                   rr.report.crash_reason.c_str());
    }
    if (!rr.report.supervisor_dump.empty()) {
      std::fprintf(stderr, "supervisor diagnostic:\n%s",
                   rr.report.supervisor_dump.c_str());
    }
    degraded = rr.report.degraded();
    if (degraded) {
      const SalvageReport srep = salvage_trace(rr.trace);
      if (srep.any()) std::fprintf(stderr, "%s\n", srep.summary().c_str());
    }
    if (!validate_trace(rr.trace).empty()) {
      std::fprintf(stderr, "error: recovered trace unsalvageable\n");
      return 4;
    }
    trace = std::move(rr.trace);
  } else {
    LoadOptions opts;
    opts.mode = salvage ? LoadMode::Salvage : LoadMode::Strict;
    LoadResult lr = load_trace_file_ex(in_path, opts);
    if (!lr.usable()) {
      std::fprintf(stderr, "error: %s", lr.describe().c_str());
      return salvage ? 4 : 1;
    }
    if (lr.status == LoadStatus::Salvaged) {
      std::fprintf(stderr, "%s", lr.describe().c_str());
    }
    degraded = lr.status == LoadStatus::Salvaged;
    trace = std::move(*lr.trace);
  }

  if (has_suffix(out_path, ".ggspool")) {
    // Re-spool a finalized trace: a cleanly-footered spool, useful for
    // building recovery corpora out of ordinary traces.
    std::string err;
    spool::SpoolOptions sopts;
    sopts.path = out_path;
    if (!spool::spool_trace(trace, sopts, &err)) {
      std::fprintf(stderr, "error: cannot write %s: %s\n", out_path.c_str(),
                   err.c_str());
      return 1;
    }
  } else if (!save_trace_file(trace, out_path.c_str())) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s -> %s (%zu tasks, %zu fragments, %zu chunks, %zu "
              "dependences)\n",
              in_path.c_str(), out_path.c_str(), trace.tasks.size(),
              trace.fragments.size(), trace.chunks.size(),
              trace.depends.size());
  return degraded ? 3 : 0;
}
