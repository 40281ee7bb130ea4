// The three benchmark workloads, each a thin loop over the public hdsm
// stack API driven by the cluster's own rank threads (master + two
// remotes).  See README.md for what each one stresses and why.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/stats.hpp"
#include "probe.hpp"

namespace perfbench {

struct Config {
  std::string workload;       ///< "lu-sl", "kv-object" or "kv-page"
  std::uint64_t seed = 1;     ///< key-stream seed (the KV workloads)
  double seconds = 10.0;      ///< length of the timed phase
  std::uint32_t shards = 0;   ///< KV: 0 = the workload's own shard count
  bool traced = false;        ///< obs telemetry on + benchmark spans kept
  /// Set the cluster up again after the timed run, for the setup_s median.
  bool extra_setups = true;
};

/// Counters of the layers under the calls, summed over every node and
/// taken over the timed phase only (end minus start snapshot).
struct LayerCounters {
  hdsm::dsm::ShareStats stats;    ///< Eq.-1 buckets, traffic, retries
  std::uint64_t reply_wait_ns = 0;  ///< obs phase.reply_wait.ns sum
  std::uint64_t lock_wait_ns = 0;   ///< obs phase.lock_wait.ns sum
  std::uint64_t frames_in = 0;      ///< home reactor
  std::uint64_t wakeups = 0;        ///< home reactor
  std::uint64_t ring_stalls = 0;    ///< home reactor
  std::uint64_t home_busy_ns = 0;   ///< see README: dsm.shard_busy_ms

  LayerCounters& operator+=(const LayerCounters& o);
};

/// Everything one measured run produced.
struct RunResult {
  std::vector<double> setup_s;   ///< one entry per cluster set-up
  double timed_s = 0.0;          ///< wall time of the timed phase
  double peak_rss_mb = 0.0;      ///< after the timed run's checks
  std::uint64_t attempted = 0;   ///< ops (KV) or barrier episodes (LU)
  std::uint64_t failed = 0;      ///< ops whose result failed its check
  std::vector<RankProbe> probes;  ///< [rank], timed phase; rank 0 = master
  LayerCounters layers;
  std::string check_error;        ///< empty when every check passed

  /// Fold another run of the same workload into this one.
  void merge(const RunResult& o);
};

/// Set up the workload's cluster, run it for `cfg.seconds` and check every
/// output; then, with `cfg.extra_setups`, set it up again a few times for
/// the set-up time median.
RunResult run_workload(const Config& cfg);

}  // namespace perfbench
