// The benchmark's own instrumentation: one RankProbe per rank thread times
// every lock/unlock/barrier call and every compute interval of the timed
// phase on the wall clock, keeps per-call samples for the latency
// percentiles, and (traced runs only) keeps spans for the Chrome trace.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/timer.hpp"

namespace perfbench {

inline std::uint64_t now_ns() { return hdsm::obs::ScopedTimer::now_ns(); }

/// What a span covers.  The first three are calls into the DSM; Compute is
/// the workload's own work between them.
enum class Layer : std::uint8_t { Lock, Unlock, Barrier, Compute, kCount };
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Metric-style name: "dsm.lock", "dsm.unlock", "dsm.barrier",
/// "workloads.compute".
const char* layer_name(Layer l);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  Layer layer = Layer::Compute;
};

/// Latency histogram with 128 linear sub-buckets per power of two, so a
/// percentile read from it is within 0.8% of the exact sample.  Its size is
/// fixed: the benchmark's own memory must not grow with the op count, or
/// peak_rss_mb would measure the benchmark instead of hdsm.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++total_;
  }
  void merge(const LatencyHistogram& o);
  std::uint64_t count() const { return total_; }
  /// Nearest-rank percentile (0 < p <= 1), interpolated inside its bucket;
  /// 0 for an empty histogram.
  double percentile(double p) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned h = 63u - static_cast<unsigned>(__builtin_clzll(v));
    return (h - kSubBits + 1) * kSub + ((v >> (h - kSubBits)) & (kSub - 1));
  }
  /// [lower, lower + width) of bucket `i`.
  static std::uint64_t lower_of(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t octave = i / kSub;
    return (kSub + i % kSub) << (octave - 1);
  }
  static std::uint64_t width_of(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Measurements of one rank thread: per-call and per-episode latency
/// histograms, busy time per layer, and (traced runs) spans.  Only its own
/// thread touches it until the cluster run has joined that thread.
class RankProbe {
 public:
  /// Spans past this many per rank are counted but not kept for the trace.
  static constexpr std::size_t kMaxSpans = 50'000;

  explicit RankProbe(bool record_spans) : record_spans_(record_spans) {}

  void begin() { begin_ns_ = now_ns(); }
  void end() {
    end_ns_ = now_ns();
    wall_ns_ += end_ns_ - begin_ns_;
  }

  /// One round (an LU solve, or a block of KV ops) that began at `start_ns`
  /// has just ended.
  void round_done(std::uint64_t start_ns) {
    round_s_.push_back(static_cast<double>(now_ns() - start_ns) / 1e9);
  }

  /// Fold another timed phase of the same rank into this one: busy and
  /// wall times add, histograms and rounds merge, spans append.
  void merge(const RankProbe& o);

  /// Time one call into a DSM layer or one compute interval; returns the
  /// call's start time.
  template <typename F>
  std::uint64_t time(Layer l, F&& f) {
    const std::uint64_t t0 = now_ns();
    f();
    const std::uint64_t t1 = now_ns();
    const auto i = static_cast<std::size_t>(l);
    busy_ns_[i] += t1 - t0;
    if (l != Layer::Compute) calls_[i].record(t1 - t0);
    if (record_spans_ && spans_.size() < kMaxSpans) {
      spans_.push_back({t0, t1, l});
    }
    last_end_ns_ = t1;
    return t0;
  }

  /// One episode, from `start_ns` to the end of the last timed call.
  void episode(std::uint64_t start_ns) {
    episodes_.record(last_end_ns_ - start_ns);
  }

  std::uint64_t begin_ns() const { return begin_ns_; }
  std::uint64_t end_ns() const { return end_ns_; }
  /// Timed wall time, summed over merged phases.
  std::uint64_t wall_ns() const { return wall_ns_; }
  std::uint64_t busy_ns(Layer l) const {
    return busy_ns_[static_cast<std::size_t>(l)];
  }
  const LatencyHistogram& calls(Layer l) const {
    return calls_[static_cast<std::size_t>(l)];
  }
  const LatencyHistogram& episodes() const { return episodes_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<double>& round_s() const { return round_s_; }

 private:
  bool record_spans_;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t end_ns_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::uint64_t last_end_ns_ = 0;
  std::array<std::uint64_t, kLayerCount> busy_ns_{};
  std::array<LatencyHistogram, kLayerCount> calls_;
  LatencyHistogram episodes_;
  std::vector<Span> spans_;
  std::vector<double> round_s_;
};

double median(std::vector<double> v);

/// Write every probe's spans as Chrome trace-event JSON (pid = rank).
/// Returns false if the file could not be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<RankProbe>& probes);

}  // namespace perfbench
