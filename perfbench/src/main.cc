// idl_perfbench: runs one workload of the IDL benchmark and prints its
// report; the last line of standard output is the JSON result.
//
//   idl_perfbench --workload fig1_build|view_reads|commit_mix --seed N
//                 --seconds S --trace 0|1 [--tiny] [--scratch-dir DIR]
//
// Usually started through perfbench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "idl_perfbench: %s\nusage: idl_perfbench --workload "
               "fig1_build|view_reads|commit_mix --seed N --seconds S "
               "--trace 0|1 [--tiny] [--scratch-dir DIR] [--git-sha S] "
               "[--git-dirty D] [--source-digest H]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--scratch-dir") {
      args.scratch_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--git-dirty") {
      args.git_dirty = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Report report(args);
  perfbench::AddFingerprint(&report, args);
  try {
    if (args.workload == "fig1_build") {
      perfbench::RunFig1Build(args, &report);
    } else if (args.workload == "view_reads") {
      perfbench::RunViewReads(args, &report);
    } else if (args.workload == "commit_mix") {
      perfbench::RunCommitMix(args, &report);
    } else {
      return Usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idl_perfbench: %s\n", e.what());
    return 1;
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "idl_perfbench: no operation ran\n");
    return 1;
  }
  report.Print();
  return 0;
}
