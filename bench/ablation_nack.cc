// Ablation A2: value of the nack mechanism inside LHA-Probe (paper §IV-A).
// Without nacks a member cannot distinguish "target down" from "my relays
// (or I) are slow", so its LHM rises more slowly.
#include "bench_common.h"
#include "harness/table.h"

using namespace lifeguard;
using namespace lifeguard::harness;

int main() {
  const auto opt = bench::repro_options();
  bench::print_banner("Ablation — LHA-Probe with and without nack",
                      "design choice from paper §IV-A (footnote 5)", opt);
  Grid ig = interval_grid(opt);
  if (!opt.full) {
    ig.concurrency = {8, 16};
    ig.durations = {msec(8192), msec(32768)};
    ig.intervals = {msec(4)};
  }

  Table table({"Configuration", "FP Events", "FP- Events", "Msgs Sent(M)",
               "Bytes Sent(GiB)"});
  for (const bool nack : {true, false}) {
    swim::Config cfg = swim::Config::lifeguard();
    cfg.nack_enabled = nack;
    const std::string name = nack ? "Lifeguard (nack on)"
                                  : "Lifeguard (nack off)";
    const auto r = sweep_interval(cfg, ig, opt.seed, stderr_progress(name));
    table.add_row({name, fmt_int(r.fp), fmt_int(r.fpm),
                   fmt_double(static_cast<double>(r.msgs) / 1e6, 2),
                   fmt_bytes_gib(r.bytes)});
  }
  table.print();
  std::printf(
      "\nExpectation: disabling nack removes some messages but weakens the"
      "\nLHM signal at slow members (missed-nack events vanish).\n");
  return 0;
}
