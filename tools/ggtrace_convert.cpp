// ggtrace-convert — convert traces between the text (.ggtrace), binary
// (.ggbin) and crash-spool (.ggspool) formats; formats are chosen by file
// extension (a spool input also by its magic).
//
//   ggtrace-convert [--salvage] in.ggtrace out.ggbin
//   ggtrace-convert [--salvage] in.ggbin out.ggtrace
//   ggtrace-convert in.ggspool out.ggtrace     (recover, then convert)
//   ggtrace-convert in.ggbin out.ggspool       (re-spool a finalized trace)
//
// The input is validated before conversion; a malformed or structurally
// invalid trace fails (exit 1) naming the first bad record. With --salvage
// a damaged trace is repaired first (exit 3 when anything was repaired) and
// only an unsalvageable input fails (exit 4). A spool input is loaded as
// gganalyze loads it, whatever --salvage says: the recovery report, any
// crash provenance and supervisor diagnostic go to stderr, a spool that
// recovers degraded is salvaged and converts with exit 3, and one with
// nothing recoverable fails with exit 4.
#include <cstdio>
#include <string>

#include "trace/serialize.hpp"

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

  LoadOptions opts;
  opts.mode = salvage ? LoadMode::Salvage : LoadMode::Strict;
  opts.threads = 0;  // recover, parse and finalize at the auto thread count
  LoadResult lr = load_trace_file_ex(in_path, opts);
  std::fputs(lr.describe().c_str(), stderr);
  if (!lr.usable()) return load_exit_code(lr, opts);
  const Trace& trace = *lr.trace;

  if (!save_trace_file(trace, out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s -> %s (%zu tasks, %zu fragments, %zu chunks, %zu "
              "dependences)\n",
              in_path.c_str(), out_path.c_str(), trace.tasks.size(),
              trace.fragments.size(), trace.chunks.size(),
              trace.depends.size());
  return load_exit_code(lr, opts);
}
