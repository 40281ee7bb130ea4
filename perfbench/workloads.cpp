#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "dsm/cluster.hpp"
#include "dsm/sharded_cluster.hpp"
#include "obj/object_dsm.hpp"
#include "workloads/kv.hpp"
#include "workloads/lu.hpp"

namespace perfbench {

namespace {

namespace dsm = hdsm::dsm;
namespace obj = hdsm::obj;
namespace plat = hdsm::plat;
namespace work = hdsm::work;

constexpr std::uint32_t kRanks = 3;  // master + two remotes

// ---- per-node counter snapshots ---------------------------------------------

/// One node's counters at one instant; the timed phase's layer counters
/// are the end-minus-begin differences summed over the nodes.
struct NodeSnap {
  dsm::ShareStats stats;
  std::uint64_t reply_wait_ns = 0;
  std::uint64_t lock_wait_ns = 0;
  hdsm::msg::ReactorStats transport;  ///< home only
  std::uint64_t home_busy_ns = 0;     ///< home only
};

void add_telemetry(NodeSnap& s, hdsm::obs::Telemetry* t) {
  if (t == nullptr) return;
  const hdsm::obs::MetricsSnapshot m = t->metrics();
  const auto sum = [&m](const char* name) -> std::uint64_t {
    const auto it = m.histograms.find(name);
    return it == m.histograms.end() ? 0 : it->second.sum;
  };
  s.reply_wait_ns = sum("phase.reply_wait.ns");
  s.lock_wait_ns = sum("phase.lock_wait.ns");
}

NodeSnap snapshot(dsm::HomeNode& h) {
  NodeSnap s;
  s.stats = h.stats();
  add_telemetry(s, h.telemetry());
  s.transport = h.transport_stats();
  // HomeNode keeps no busy counter; its codec work (what ShardedHome's
  // per-shard busy time measures) stands in.
  s.home_busy_ns =
      s.stats.tag_ns + s.stats.pack_ns + s.stats.unpack_ns + s.stats.conv_ns;
  return s;
}

NodeSnap snapshot(dsm::ShardedHome& h) {
  NodeSnap s;
  s.stats = h.stats();
  add_telemetry(s, h.telemetry());
  s.transport = h.transport_stats();
  for (std::uint32_t i = 0; i < h.num_shards(); ++i) {
    s.home_busy_ns += h.shard_busy_ns(i);
  }
  return s;
}

template <typename Remote>
NodeSnap snapshot_remote(Remote& r) {
  NodeSnap s;
  s.stats = r.stats();
  add_telemetry(s, r.telemetry());
  return s;
}

NodeSnap snapshot(dsm::RemoteThread& r) { return snapshot_remote(r); }
NodeSnap snapshot(dsm::ShardedRemote& r) { return snapshot_remote(r); }
NodeSnap snapshot(obj::ObjectHome& h) { return snapshot(h.node()); }
NodeSnap snapshot(obj::ObjectRemote& r) { return snapshot(r.node()); }

dsm::ShareStats minus(const dsm::ShareStats& a, const dsm::ShareStats& b) {
  dsm::ShareStats d;
#define PERFBENCH_X(field) d.field = a.field - b.field;
  HDSM_SHARE_STATS_FIELDS(PERFBENCH_X)
#undef PERFBENCH_X
  return d;
}

void accumulate(LayerCounters& out, const NodeSnap& end, const NodeSnap& begin) {
  out.stats += minus(end.stats, begin.stats);
  out.reply_wait_ns += end.reply_wait_ns - begin.reply_wait_ns;
  out.lock_wait_ns += end.lock_wait_ns - begin.lock_wait_ns;
  out.frames_in += end.transport.frames_in - begin.transport.frames_in;
  out.wakeups += end.transport.wakeups - begin.transport.wakeups;
  out.ring_stalls += end.transport.ring_stalls - begin.transport.ring_stalls;
  out.home_busy_ns += end.home_busy_ns - begin.home_busy_ns;
}

/// Cluster set-ups per run: the timed one, then kSetups - 1 more, so that
/// setup_s is a median.
constexpr std::uint32_t kSetups = 15;

// ---- the rank loop shared by every workload ------------------------------

/// State the rank threads of one cluster lifetime share.  Each rank writes
/// only its own slots.
struct ClusterRun {
  ClusterRun(const Config& c, bool t)
      : cfg(c), timed(t), setup_end_ns(kRanks), begin(kRanks), end(kRanks) {
    for (std::uint32_t r = 0; r < kRanks; ++r) probes.emplace_back(c.traced);
  }

  const Config& cfg;
  const bool timed;  ///< false = set up, then tear down
  std::uint64_t construct_ns = 0;
  std::vector<std::uint64_t> setup_end_ns;  ///< [rank] set-up finished
  std::vector<NodeSnap> begin, end;         ///< [rank]
  std::vector<RankProbe> probes;            ///< [rank]
};

/// One rank's life in a cluster: the first synchronization and, with
/// `warm_locks`, one acquire of each lock below it (the image pull, end of
/// set-up); then, in the timed run, `body(probe, deadline_ns)` between two
/// barriers that bracket the timed phase and its counter snapshots.
template <typename Node, typename Body>
void drive(ClusterRun& s, std::uint32_t rank, Node& node,
           std::uint32_t warm_locks, Body&& body) {
  node.barrier(0);
  // A sharded home keeps each region's share of the initial image at the
  // shard owning the region, and only that region's acquire pulls it; so
  // set-up acquires every lock once, ranks starting at different locks.
  for (std::uint32_t i = 0; i < warm_locks; ++i) {
    const std::uint32_t lock = (i + rank * warm_locks / kRanks) % warm_locks;
    node.lock(lock);
    node.unlock(lock);
  }
  s.setup_end_ns[rank] = now_ns();
  if (!s.timed) return;
  node.barrier(0);  // the image pull has settled on every node
  s.begin[rank] = snapshot(node);
  RankProbe& probe = s.probes[rank];
  probe.begin();
  body(probe, now_ns() + static_cast<std::uint64_t>(s.cfg.seconds * 1e9));
  probe.end();
  node.barrier(0);  // the last release has settled on every node
  s.end[rank] = snapshot(node);
}

/// Fold one finished cluster run into the run's result.
void collect(ClusterRun& s, RunResult& out) {
  std::uint64_t setup_end = 0;
  for (std::uint64_t t : s.setup_end_ns) setup_end = std::max(setup_end, t);
  out.setup_s.push_back(static_cast<double>(setup_end - s.construct_ns) / 1e9);
  if (!s.timed) return;
  std::uint64_t first = UINT64_MAX;
  std::uint64_t last = 0;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    first = std::min(first, s.probes[r].begin_ns());
    last = std::max(last, s.probes[r].end_ns());
    accumulate(out.layers, s.end[r], s.begin[r]);
  }
  out.timed_s = static_cast<double>(last - first) / 1e9;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  out.probes = std::move(s.probes);
}

/// The timed run first, then the extra set-ups.
std::uint32_t setups(const Config& cfg) {
  return cfg.extra_setups ? kSetups : 1;
}

// ---- lu-sl ------------------------------------------------------------------

/// 255 is the paper's largest matrix: 255 barrier episodes per solve.
constexpr std::uint32_t kLuN = 255;

/// One elimination step of the paper's LU (work::run_lu's loop body, same
/// operation order, so results match work::lu_reference bit for bit).
template <typename View>
void lu_step(View& mv, std::vector<double>& rowk, std::uint32_t k,
             std::uint32_t rank) {
  const std::uint32_t n = kLuN;
  for (std::uint32_t j = k; j < n; ++j) {
    rowk[j] = mv.get(static_cast<std::uint64_t>(k) * n + j);
  }
  for (std::uint32_t i = k + 1; i < n; ++i) {
    if (i % kRanks != rank) continue;
    const std::uint64_t row = static_cast<std::uint64_t>(i) * n;
    const double l = mv.get(row + k) / rowk[k];
    mv.set(row + k, l);
    for (std::uint32_t j = k + 1; j < n; ++j) {
      mv.set(row + j, mv.get(row + j) - l * rowk[j]);
    }
  }
}

/// The body of one solve, minus its closing barrier: the master writes the
/// input under lock 0; barrier 0 publishes it; then n-1 elimination steps
/// separated by barriers.
template <typename Node>
void lu_round(Node& node, RankProbe& p, std::uint32_t rank,
              const std::function<void()>& write_input) {
  const std::uint32_t n = kLuN;
  auto mv = node.space().template view<double>("M");
  std::vector<double> rowk(n);
  if (rank == 0) {
    p.time(Layer::Lock, [&] { node.lock(0); });
    p.time(Layer::Compute, write_input);
    p.time(Layer::Unlock, [&] { node.unlock(0); });
  }
  p.episode(p.time(Layer::Barrier, [&] { node.barrier(0); }));
  for (std::uint32_t k = 0; k + 1 < n; ++k) {
    p.time(Layer::Compute, [&] { lu_step(mv, rowk, k, rank); });
    if (k + 2 < n) p.episode(p.time(Layer::Barrier, [&] { node.barrier(0); }));
  }
}

/// max |(L·U - A)[i][j]| over the matrix, with L unit lower triangular and
/// U upper triangular packed in `m` — computed apart from the program.
double lu_residual(const std::vector<double>& m) {
  const std::uint32_t n = kLuN;
  double worst = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::uint32_t k = 0; k <= std::min(i, j); ++k) {
        const double l = k == i ? 1.0 : m[static_cast<std::uint64_t>(i) * n + k];
        sum += l * m[static_cast<std::uint64_t>(k) * n + j];
      }
      worst = std::max(worst, std::fabs(sum - work::lu_input(n, i, j)));
    }
  }
  return worst;
}

RunResult run_lu(const Config& cfg) {
  const std::uint32_t n = kLuN;
  const std::uint64_t nn = static_cast<std::uint64_t>(n) * n;
  const hdsm::tags::TypePtr gthv = work::lu_gthv(n);
  const std::vector<double> reference = work::lu_reference(n);
  std::vector<double> input(nn);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      input[static_cast<std::uint64_t>(i) * n + j] = work::lu_input(n, i, j);
    }
  }
  dsm::HomeOptions opts;
  opts.obs.enabled = cfg.traced;

  RunResult result;
  std::vector<double> solved(nn);
  std::uint64_t solves = 0;
  std::uint64_t bad_solves = 0;
  for (std::uint32_t setup = 0; setup < setups(cfg); ++setup) {
    ClusterRun s(cfg, setup == 0);
    // The master publishes the last solve's number before entering that
    // solve's closing barrier, so every rank reads it after the barrier and
    // all ranks run the same solves.
    std::atomic<std::uint64_t> last_solve{UINT64_MAX};
    // Whole solves until the master's deadline; after each, outside the
    // solve's time, the master checks the factors.
    const auto solve_loop = [&](auto& node, std::uint32_t rank,
                                const std::function<void()>& write_input,
                                const std::function<void()>& check) {
      return [&, rank](RankProbe& p, std::uint64_t deadline) {
        for (std::uint64_t j = 0;; ++j) {
          const std::uint64_t start = now_ns();
          lu_round(node, p, rank, write_input);
          if (rank == 0 && now_ns() >= deadline) last_solve.store(j);
          p.episode(p.time(Layer::Barrier, [&] { node.barrier(0); }));
          p.round_done(start);
          if (rank == 0) check();
          if (last_solve.load() == j) break;
        }
      };
    };
    s.construct_ns = now_ns();
    dsm::Cluster cluster(gthv, plat::solaris_sparc32(),
                         {&plat::linux_ia32(), &plat::linux_ia32()}, opts);
    cluster.run(
        [&](dsm::HomeNode& home) {
          auto mv = home.space().view<double>("M");
          const auto write_input = [&] {
            mv.set_range(0, nn, input.data());
            home.space().view<std::int32_t>("n").set(
                static_cast<std::int32_t>(n));
          };
          const auto check = [&] {
            ++solves;
            mv.get_range(0, nn, solved.data());
            if (std::memcmp(solved.data(), reference.data(),
                            nn * sizeof(double)) != 0) {
              ++bad_solves;
            }
          };
          drive(s, 0, home, 0, solve_loop(home, 0, write_input, check));
          home.wait_all_joined();
        },
        [&](dsm::RemoteThread& remote) {
          drive(s, remote.rank(), remote, 0,
                solve_loop(remote, remote.rank(), [] {}, [] {}));
          remote.join();
        });
    collect(s, result);
  }

  // Every barrier episode of a solve whose factors are wrong counts failed.
  result.attempted = solves * n;
  result.failed = bad_solves * n;
  const double residual = lu_residual(solved);
  if (bad_solves != 0) {
    result.check_error = std::to_string(bad_solves) +
                         " solve(s) differ from work::lu_reference";
  } else if (!(residual < 1e-9 * n)) {
    result.check_error = "residual |LU - A| = " + std::to_string(residual);
  }
  return result;
}

// ---- kv-object / kv-page ----------------------------------------------------

constexpr std::uint32_t kKvWords = 4;
constexpr std::uint32_t kKvRegions = 64;
constexpr double kKvTheta = 0.99;
constexpr std::uint32_t kKvClass = 0;
/// Ops in one block: a rank checks its deadline, and times a round, once
/// per block, so every rank runs whole blocks.
constexpr std::uint32_t kKvBlock = 1000;
/// Keys pre-generated per rank; op i of a rank uses key i % kKvStream.
constexpr std::size_t kKvStream = 1 << 18;

struct KvSpec {
  std::uint64_t objects;
  std::uint32_t shards;
  bool object_mode;
};

std::int32_t kv_stamp(std::uint32_t count, std::uint32_t word) {
  return static_cast<std::int32_t>(count + word);
}

/// Rank r's key stream for `seed`: work::ZipfianGenerator, made before
/// any cluster exists.
std::vector<std::vector<std::uint64_t>> kv_streams(const KvSpec& spec,
                                                   std::uint64_t seed) {
  std::vector<std::vector<std::uint64_t>> streams(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    work::ZipfianGenerator gen(spec.objects, kKvTheta, seed * kRanks + r);
    streams[r].resize(kKvStream);
    for (std::uint64_t& key : streams[r]) key = gen.next();
  }
  return streams;
}

/// Page-mode addressing of the same striped GThV the object layout
/// generates, through plain views (mprotect/twin diffing tracks writes).
class PageAccessor {
 public:
  PageAccessor(dsm::GlobalSpace& space, const obj::ObjectLayout& layout)
      : layout_(layout) {
    for (std::uint32_t r = 0; r < layout.num_regions(); ++r) {
      stripes_.push_back(
          space.view<std::int32_t>(layout.field_name(kKvClass, r)));
    }
  }
  std::int32_t get(std::uint64_t i, std::uint32_t w) const {
    return stripes_[layout_.region_of(kKvClass, i)].get(index(i, w));
  }
  void set(std::uint64_t i, std::int32_t v, std::uint32_t w) {
    stripes_[layout_.region_of(kKvClass, i)].set(index(i, w), v);
  }

 private:
  std::uint64_t index(std::uint64_t i, std::uint32_t w) const {
    return static_cast<std::uint64_t>(layout_.slot_of(kKvClass, i)) *
               kKvWords + w;
  }
  const obj::ObjectLayout& layout_;
  std::vector<dsm::View<std::int32_t>> stripes_;
};

/// One rank's closed loop: blocks of kKvBlock locked read-modify-writes
/// (bump word 0, restamp every word) over its stream until `deadline`,
/// with no synchronization between ranks.  Returns the ops run.
template <typename Node, typename Accessor>
std::uint64_t kv_loop(Node& node, Accessor& acc, const obj::ObjectLayout& layout,
                      const std::vector<std::uint64_t>& stream, RankProbe& p,
                      std::uint64_t deadline) {
  std::uint64_t op = 0;
  while (now_ns() < deadline) {
    const std::uint64_t start = now_ns();
    for (std::uint32_t i = 0; i < kKvBlock; ++i, ++op) {
      const std::uint64_t key = stream[op % kKvStream];
      const std::uint32_t region = layout.region_of(kKvClass, key);
      const std::uint64_t t0 = p.time(Layer::Lock, [&] { node.lock(region); });
      p.time(Layer::Compute, [&] {
        const auto count = static_cast<std::uint32_t>(acc.get(key, 0)) + 1;
        for (std::uint32_t w = 0; w < kKvWords; ++w) {
          acc.set(key, kv_stamp(count, w), w);
        }
      });
      p.time(Layer::Unlock, [&] { node.unlock(region); });
      p.episode(t0);
    }
    p.round_done(start);
  }
  return op;
}

/// Check the master image against hit counts replayed from the streams and
/// each rank's op count: every object's counter and stamped words, and the
/// counter total.
template <typename Accessor>
void kv_check(const KvSpec& spec,
              const std::vector<std::vector<std::uint64_t>>& streams,
              const std::vector<std::uint64_t>& ops, Accessor& acc,
              RunResult& result) {
  std::vector<std::uint32_t> expected(spec.objects, 0);
  result.attempted = 0;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    for (std::uint64_t op = 0; op < ops[r]; ++op) {
      ++expected[streams[r][op % kKvStream]];
    }
    result.attempted += ops[r];
  }
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < spec.objects; ++i) {
    bool ok = true;
    for (std::uint32_t w = 0; w < kKvWords; ++w) {
      const std::int32_t want = expected[i] == 0 ? 0 : kv_stamp(expected[i], w);
      ok = ok && acc.get(i, w) == want;
    }
    if (!ok) result.failed += std::max<std::uint32_t>(expected[i], 1);
    total += static_cast<std::uint32_t>(acc.get(i, 0));
  }
  result.failed = std::min(result.failed, result.attempted);
  if (result.failed != 0) {
    result.check_error = std::to_string(result.failed) +
                         " op(s) on objects whose counters or stamps differ "
                         "from the replayed hit counts";
  } else if (total != result.attempted) {
    result.check_error = "counters sum to " + std::to_string(total) +
                         ", ops attempted " + std::to_string(result.attempted);
  }
}

const std::vector<const plat::PlatformDesc*>& kv_remotes() {
  static const std::vector<const plat::PlatformDesc*> remotes = {
      &plat::linux_ia32(), &plat::solaris_sparc64()};
  return remotes;
}

RunResult run_kv(const Config& cfg, KvSpec spec) {
  if (cfg.shards != 0) spec.shards = cfg.shards;
  work::KvConfig kc;
  kc.num_objects = spec.objects;
  kc.words = kKvWords;
  kc.num_regions = kKvRegions;
  const obj::ObjectLayoutPtr layout = work::kv_layout(kc);
  const auto streams = kv_streams(spec, cfg.seed);

  RunResult result;
  for (std::uint32_t setup = 0; setup < setups(cfg); ++setup) {
    ClusterRun s(cfg, setup == 0);
    std::vector<std::uint64_t> ops(kRanks, 0);  // [rank]
    const auto loop = [&](auto& node, auto& acc, std::uint32_t rank) {
      return [&, rank](RankProbe& p, std::uint64_t deadline) {
        ops[rank] = kv_loop(node, acc, *layout, streams[rank], p, deadline);
      };
    };
    s.construct_ns = now_ns();
    if (spec.object_mode) {
      dsm::ShardedHomeOptions opts;
      opts.num_shards = spec.shards;
      opts.obs.enabled = cfg.traced;
      dsm::ShardedRemoteOptions ropts;
      ropts.obs.enabled = cfg.traced;
      obj::ObjectCluster cluster(layout, plat::linux_x86_64(), kv_remotes(),
                                 opts, nullptr, ropts);
      cluster.run(
          [&](obj::ObjectHome& home) {
            auto acc = home.accessor<std::int32_t>(kKvClass);
            drive(s, 0, home, kKvRegions, loop(home, acc, 0));
            home.wait_all_joined();
          },
          [&](obj::ObjectRemote& remote) {
            auto acc = remote.accessor<std::int32_t>(kKvClass);
            drive(s, remote.rank(), remote, kKvRegions,
                  loop(remote, acc, remote.rank()));
            remote.join();
          });
      if (s.timed) {
        auto acc = cluster.home().accessor<std::int32_t>(kKvClass);
        kv_check(spec, streams, ops, acc, result);
      }
    } else {
      // The same entry-consistency regime as work::run_kv's page mode:
      // each region's lock guards its stripe, pending stays region-scoped.
      dsm::ShardedHomeOptions opts;
      opts.num_locks = kKvRegions;
      opts.num_barriers = kKvRegions;
      opts.num_shards = spec.shards;
      opts.obs.enabled = cfg.traced;
      opts.row_region = [layout](std::uint32_t row) {
        return layout->region_of_row(row);
      };
      opts.scoped_pending = true;
      dsm::ShardedCluster cluster(layout->gthv(), plat::linux_x86_64(),
                                  kv_remotes(), opts);
      for (std::uint32_t r = 0; r < kKvRegions; ++r) {
        cluster.home().bind_lock(r, layout->field_name(kKvClass, r));
      }
      cluster.run(
          [&](dsm::ShardedHome& home) {
            PageAccessor acc(home.space(), *layout);
            drive(s, 0, home, kKvRegions, loop(home, acc, 0));
            home.wait_all_joined();
          },
          [&](dsm::ShardedRemote& remote) {
            PageAccessor acc(remote.space(), *layout);
            drive(s, remote.rank(), remote, kKvRegions,
                  loop(remote, acc, remote.rank()));
            remote.join();
          });
      if (s.timed) {
        PageAccessor acc(cluster.home().space(), *layout);
        kv_check(spec, streams, ops, acc, result);
      }
    }
    collect(s, result);
  }
  return result;
}

}  // namespace

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  stats += o.stats;
  reply_wait_ns += o.reply_wait_ns;
  lock_wait_ns += o.lock_wait_ns;
  frames_in += o.frames_in;
  wakeups += o.wakeups;
  ring_stalls += o.ring_stalls;
  home_busy_ns += o.home_busy_ns;
  return *this;
}

void RunResult::merge(const RunResult& o) {
  setup_s.insert(setup_s.end(), o.setup_s.begin(), o.setup_s.end());
  timed_s += o.timed_s;
  peak_rss_mb = std::max(peak_rss_mb, o.peak_rss_mb);
  attempted += o.attempted;
  failed += o.failed;
  if (probes.empty()) {
    probes = o.probes;
  } else {
    for (std::size_t r = 0; r < probes.size(); ++r) probes[r].merge(o.probes[r]);
  }
  layers += o.layers;
  if (check_error.empty()) check_error = o.check_error;
}

RunResult run_workload(const Config& cfg) {
  if (cfg.workload == "lu-sl") return run_lu(cfg);
  if (cfg.workload == "kv-object") {
    return run_kv(cfg, {1'000'000, 2, true});
  }
  if (cfg.workload == "kv-page") return run_kv(cfg, {65'536, 1, false});
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace perfbench
