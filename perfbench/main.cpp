// hdsm_perfbench: one run of one workload.  Prints human-readable lines,
// then, as its last line, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// carrying the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1).  Exits 1 when an output fails its check, 2 on bad usage.
//
//   hdsm_perfbench --workload lu-sl|kv-object|kv-page --seed N --seconds S
//                  [--trace 0|1] [--trace-out FILE] [--shards N]
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::RunResult;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Episodes of the remote ranks (1 and 2), which reach the home over the
/// wire; the master's are local calls on the home and run several times
/// faster, so a mix of the two would move with the ranks' shares.
perfbench::LatencyHistogram remote_episodes(const RunResult& r) {
  perfbench::LatencyHistogram all;
  for (std::size_t i = 1; i < r.probes.size(); ++i) {
    all.merge(r.probes[i].episodes());
  }
  return all;
}

/// Median round time of the remote ranks: one LU solve, or one block of
/// 1000 KV ops of one rank.
double remote_round_s(const RunResult& r) {
  std::vector<double> all;
  for (std::size_t i = 1; i < r.probes.size(); ++i) {
    const auto& v = r.probes[i].round_s();
    all.insert(all.end(), v.begin(), v.end());
  }
  return perfbench::median(all);
}

/// Episodes per second of one rank's timed wall time.
double rank_rate(const perfbench::RankProbe& p) {
  return ratio(static_cast<double>(p.episodes().count()),
               static_cast<double>(p.wall_ns()) / 1e9);
}

/// Mean over the remote ranks of each one's episodes per second.
double remote_rate(const RunResult& r) {
  double sum = 0.0;
  for (std::size_t i = 1; i < r.probes.size(); ++i) sum += rank_rate(r.probes[i]);
  return r.probes.size() > 1 ? sum / static_cast<double>(r.probes.size() - 1)
                             : 0.0;
}

perfbench::LatencyHistogram merged_calls(const RunResult& r, Layer l) {
  perfbench::LatencyHistogram all;
  for (const auto& p : r.probes) all.merge(p.calls(l));
  return all;
}

std::vector<Metric> end_to_end(const RunResult& r) {
  const auto att = static_cast<double>(r.attempted);
  return {
      {"setup_s", perfbench::median(r.setup_s), "s"},
      {"run_s", remote_round_s(r), "s"},
      {"ops_per_s", ratio(att, r.timed_s), "1/s"},
      {"remote_ops_per_s", remote_rate(r), "1/s"},
      {"episode_p50_us", remote_episodes(r).percentile(0.50) / 1e3, "us"},
      {"wire_bytes_per_op",
       ratio(static_cast<double>(r.layers.stats.update_bytes_sent), att),
       "bytes"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

/// The tracing overhead: per pair of an untraced and a traced run, the
/// traced run's remote round time over the untraced one's, minus 1.
struct Overhead {
  double median_pct = 0.0;
  double spread_pct = 0.0;  ///< max - min over the pairs
};

/// Per-layer metrics of the traced runs merged into `t`.
std::vector<Metric> per_layer(const RunResult& t, const Overhead& overhead) {
  const auto& s = t.layers.stats;
  const auto ms = [](double ns) { return ns / 1e6; };
  double busy[perfbench::kLayerCount] = {};
  double unattributed = 0.0;
  for (const auto& p : t.probes) {
    double covered = 0.0;
    for (std::size_t i = 0; i < perfbench::kLayerCount; ++i) {
      const auto b = static_cast<double>(p.busy_ns(static_cast<Layer>(i)));
      busy[i] += b;
      covered += b;
    }
    unattributed += static_cast<double>(p.wall_ns()) - covered;
  }
  const auto busy_ms = [&](Layer l) {
    return ms(busy[static_cast<std::size_t>(l)]);
  };
  const auto us = [&](Layer l, double p) {
    return merged_calls(t, l).percentile(p) / 1e3;
  };
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"workloads.compute_ms", busy_ms(Layer::Compute), "ms"},
      {"dsm.lock_ms", busy_ms(Layer::Lock), "ms"},
      {"dsm.unlock_ms", busy_ms(Layer::Unlock), "ms"},
      {"dsm.barrier_ms", busy_ms(Layer::Barrier), "ms"},
      {"dsm.unattributed_ms", ms(unattributed), "ms"},
      {"obs.reply_wait_ms", ms(f(t.layers.reply_wait_ns)), "ms"},
      {"obs.lock_wait_ms", ms(f(t.layers.lock_wait_ns)), "ms"},
      {"memory.index_ms", ms(f(s.index_ns)), "ms"},
      {"memory.dirty_pages", f(s.dirty_pages), "count"},
      {"memory.shipped_per_scanned",
       ratio(f(s.update_bytes_sent), f(s.dirty_pages) * page), "ratio"},
      {"tags.tag_ms", ms(f(s.tag_ns)), "ms"},
      {"dsm.pack_ms", ms(f(s.pack_ns)), "ms"},
      {"dsm.unpack_ms", ms(f(s.unpack_ns)), "ms"},
      {"convert.conv_ms", ms(f(s.conv_ns)), "ms"},
      {"convert.fastpath_blocks", f(s.fastpath_blocks), "count"},
      {"convert.plan_cache_hit_ratio",
       ratio(f(s.plan_cache_hits), f(s.plan_cache_hits + s.plan_cache_misses)),
       "ratio"},
      {"obj.objects_shipped", f(s.objects_shipped), "count"},
      {"msg.frames_per_wakeup",
       ratio(f(t.layers.frames_in), f(t.layers.wakeups)), "ratio"},
      {"msg.ring_stalls", f(t.layers.ring_stalls), "count"},
      {"dsm.shard_busy_ms", ms(f(t.layers.home_busy_ns)), "ms"},
      {"dsm.retries", f(s.retries), "count"},
      {"dsm.timeouts", f(s.timeouts), "count"},
      {"master.ops_per_s", t.probes.empty() ? 0.0 : rank_rate(t.probes[0]),
       "1/s"},
      {"episode_p90_us", remote_episodes(t).percentile(0.90) / 1e3, "us"},
      {"episode_p99_us", remote_episodes(t).percentile(0.99) / 1e3, "us"},
      {"dsm.lock_p50_us", us(Layer::Lock, 0.50), "us"},
      {"dsm.lock_p99_us", us(Layer::Lock, 0.99), "us"},
      {"dsm.unlock_p50_us", us(Layer::Unlock, 0.50), "us"},
      {"dsm.unlock_p99_us", us(Layer::Unlock, 0.99), "us"},
      {"dsm.barrier_p50_us", us(Layer::Barrier, 0.50), "us"},
      {"dsm.barrier_p99_us", us(Layer::Barrier, 0.99), "us"},
      {"trace.overhead_pct", overhead.median_pct, "%"},
      {"trace.overhead_spread_pct", overhead.spread_pct, "%"},
  };
}

/// The per-layer table: the benchmark's spans and the unattributed rest
/// add up to the rank threads' timed wall time; the indented lines are
/// counters of layers under those calls, some on other threads.
void print_layer_table(const std::vector<Metric>& m, const RunResult& t) {
  double rank_ms = 0.0;
  for (const auto& p : t.probes) rank_ms += static_cast<double>(p.wall_ns()) / 1e6;
  std::printf("per-layer (traced run, %zu rank threads, %.1f ms rank time):\n",
              t.probes.size(), rank_ms);
  for (const Metric& x : m) {
    const bool top = x.name == "workloads.compute_ms" ||
                     x.name == "dsm.lock_ms" || x.name == "dsm.unlock_ms" ||
                     x.name == "dsm.barrier_ms" ||
                     x.name == "dsm.unattributed_ms";
    if (top) {
      std::printf("  %-30s %14.3f ms %6.2f%%\n", x.name.c_str(), x.value,
                  100.0 * ratio(x.value, rank_ms));
    } else {
      std::printf("      %-26s %14.6g %s\n", x.name.c_str(), x.value,
                  x.unit.c_str());
    }
  }
}

void print_summary(const char* label, const RunResult& r) {
  const auto& s = r.layers.stats;
  std::printf(
      "%s: remote round median %.4f s, timed %.3f s, "
      "ops attempted %llu, failed %llu, dsm.retries %llu, dsm.timeouts %llu, "
      "check %s\n",
      label, remote_round_s(r), r.timed_s,
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.timeouts),
      r.check_error.empty() ? "ok" : r.check_error.c_str());
  // Stalls: the starvation fault in README.md shows up here first.
  std::printf("%s: per rank (episodes, per s, rounds, slowest round s):", label);
  for (const auto& p : r.probes) {
    const auto& rounds = p.round_s();
    std::printf(" (%llu, %.0f, %zu, %.3f)",
                static_cast<unsigned long long>(p.episodes().count()),
                rank_rate(p), rounds.size(),
                rounds.empty() ? 0.0
                               : *std::max_element(rounds.begin(), rounds.end()));
  }
  const auto episodes = remote_episodes(r);
  std::printf("\n%s: remote episodes p50 %.1f us, p90 %.1f us, p99 %.1f us, "
              "p99.99 %.1f us\n",
              label, episodes.percentile(0.5) / 1e3, episodes.percentile(0.9) / 1e3,
              episodes.percentile(0.99) / 1e3,
              episodes.percentile(0.9999) / 1e3);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "hdsm_perfbench: %s\nusage: hdsm_perfbench --workload "
               "lu-sl|kv-object|kv-page --seed N --seconds S [--trace 0|1] "
               "[--trace-out FILE] [--shards N]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool trace = false;
  std::string trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string val = argv[++i];
      if (arg == "--workload") {
        cfg.workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = val == "1";
      } else if (arg == "--trace-out") {
        trace_out = val;
      } else if (arg == "--shards") {
        cfg.shards = static_cast<std::uint32_t>(std::stoul(val));
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad option value");
  }
  if (cfg.workload.empty()) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be > 0");

  try {
    std::vector<Metric> metrics;
    RunResult all;  // every run of the process, for the accounting
    if (!trace) {
      all = perfbench::run_workload(cfg);
      print_summary("run", all);
      metrics = end_to_end(all);
      for (const Metric& m : metrics) {
        std::printf("%-30s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                    m.unit.c_str());
      }
    } else {
      // kPairs pairs of short runs, untraced and traced in ABBA order, so
      // that neither kind always runs first or last; the layer metrics come
      // from the traced runs merged.
      constexpr int kPairs = 4;
      cfg.seconds /= 2 * kPairs;
      cfg.extra_setups = false;
      RunResult traced;
      std::vector<double> pct;
      for (int pair = 0; pair < kPairs; ++pair) {
        double round_s[2] = {};  // [traced]
        for (int k = 0; k < 2; ++k) {
          cfg.traced = (k == 1) != (pair % 2 == 1);
          const RunResult r = perfbench::run_workload(cfg);
          print_summary(cfg.traced ? "traced" : "untraced", r);
          round_s[cfg.traced ? 1 : 0] = remote_round_s(r);
          all.merge(r);
          if (cfg.traced) traced.merge(r);
        }
        pct.push_back(100.0 * (ratio(round_s[1], round_s[0]) - 1.0));
        std::printf("pair %d: tracing overhead %.2f%%\n", pair, pct.back());
      }
      const auto [lo, hi] = std::minmax_element(pct.begin(), pct.end());
      metrics = per_layer(traced, {perfbench::median(pct), *hi - *lo});
      print_layer_table(metrics, traced);
      if (!trace_out.empty()) {
        if (!perfbench::write_chrome_trace(trace_out, traced.probes)) {
          std::fprintf(stderr, "hdsm_perfbench: cannot write %s\n",
                       trace_out.c_str());
          return 1;
        }
        std::printf("chrome trace: %s\n", trace_out.c_str());
      }
    }

    const std::uint64_t attempted = all.attempted;
    const std::uint64_t failed = all.failed;
    const bool correct = all.check_error.empty();
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
              number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdsm_perfbench: %s\n", e.what());
    return 1;
  }
}
