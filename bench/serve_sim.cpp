// Extension bench: the serving sweep — VitBit's kernel speedup turned
// into goodput and tail latency under load. Every point runs the one
// serving engine (serve/sched) over the model zoo: priority classes,
// fifo / continuous batching / preemptive continuous batching, per-
// replica LRU weight caches, optionally sharded behind a router (rr,
// jsq, po2c, or model-affinity warm routing) with per-shard autoscaling,
// and — in fifo mode — seeded fault injection with retries, shedding and
// degraded-mode failover. Reports, per (strategy, mode, route, rate),
// goodput, p99, drop rate, shed count, preemption and cold-swap counts,
// and the per-shard utilization spread.
//
//   serve_sim [--models=vit-b] [--layers=N] [--strategies=TC,VitBit]
//             [--modes=fifo,cb,cb-pre] [--rates=200,400] [--shards=1]
//             [--routes=jsq] ... [--threads=N] [--csv] [--json=PATH]
//
// The flag set is `vitbit_cli serve`'s (README lists every flag). --json
// writes a schema-versioned run report (fleet_sched_points section) — the
// document CI diffs across --threads values byte for byte (the fleet
// loop is single-threaded per sweep point; parallelism only fans out
// over points).
#include <chrono>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "serve/cluster.h"

namespace vitbit {
namespace {

int run(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const Cli cli(argc, argv);
  const arch::OrinSpec spec;
  const auto& calib = arch::default_calibration();
  auto pool = bench::make_pool(cli);

  // The one flag set shared with `vitbit_cli serve`, validated on return.
  const auto cfg = serve::fleet_sched_config_from_cli(cli);
  const bool csv = cli.get_bool("csv", false);
  const std::string json = cli.json_path();

  // Reject typos before the expensive sweep: a misspelled knob silently
  // reverting to its default would invalidate the whole table.
  if (const auto typos = cli.unused(); !typos.empty()) {
    std::cerr << "serve_sim: unknown flag --" << typos.front() << "\n";
    return 2;
  }

  const auto points = serve::run_fleet_sched_sweep(cfg, spec, calib, &pool);
  const auto t = serve::fleet_sched_table(cfg, points);
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);

  if (!json.empty()) {
    auto rep = serve::make_fleet_sched_report(cfg, points, "serve_sim",
                                              pool.size());
    rep.host_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    report::save_report_file(json, rep);
  }

  std::cout << "\nEvery point faces the same request stream, so strategy, "
               "mode, and route\ndeltas are kernels, scheduling, and "
               "placement — never sampling.\n";
  return 0;
}

}  // namespace
}  // namespace vitbit

int main(int argc, char** argv) {
  return vitbit::bench::guarded_main(argc, argv, vitbit::run);
}
