// Shared scaffolding for the table/figure reproduction binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "harness/sweep.h"

namespace lifeguard::bench {

/// ReproOptions::from_env(), or exit 2 with the variable named on stderr
/// when a REPRO_* value is malformed.
inline harness::ReproOptions repro_options() {
  try {
    return harness::ReproOptions::from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

inline void print_banner(const char* what, const char* paper_ref,
                         const harness::ReproOptions& opt) {
  std::printf("== %s ==\n", what);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Mode: %s grid (REPRO_FULL=%d), seed %llu, jobs %s%s\n\n",
              opt.full ? "full paper" : "quick", opt.full ? 1 : 0,
              static_cast<unsigned long long>(opt.seed),
              opt.jobs == 0 ? "auto" : std::to_string(opt.jobs).c_str(),
              opt.reps_override > 0 ? " (REPRO_REPS override)" : "");
}

}  // namespace lifeguard::bench
