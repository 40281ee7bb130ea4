#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::Lock: return "dsm.lock";
    case Layer::Unlock: return "dsm.unlock";
    case Layer::Barrier: return "dsm.barrier";
    case Layer::Compute: return "workloads.compute";
    case Layer::kCount: break;
  }
  return "unknown";
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double LatencyHistogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (seen + counts_[i] >= rank) {
      // Spread the bucket's samples evenly over its width.
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
      return static_cast<double>(lower_of(i)) +
             within * static_cast<double>(width_of(i));
    }
    seen += counts_[i];
  }
  return 0.0;
}

void RankProbe::merge(const RankProbe& o) {
  wall_ns_ += o.wall_ns_;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    busy_ns_[i] += o.busy_ns_[i];
    calls_[i].merge(o.calls_[i]);
  }
  episodes_.merge(o.episodes_);
  const std::size_t room = kMaxSpans - std::min(kMaxSpans, spans_.size());
  spans_.insert(spans_.end(), o.spans_.begin(),
                o.spans_.begin() + std::min(room, o.spans_.size()));
  round_s_.insert(round_s_.end(), o.round_s_.begin(), o.round_s_.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<RankProbe>& probes) {
  std::uint64_t origin = UINT64_MAX;
  for (const RankProbe& p : probes) {
    if (!p.spans().empty()) {
      origin = std::min(origin, p.spans().front().start_ns);
    }
  }
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed;
  out.precision(3);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t rank = 0; rank < probes.size(); ++rank) {
    out << (first ? "" : ",") << "\n{\"name\":\"process_name\",\"ph\":\"M\","
        << "\"pid\":" << rank << ",\"tid\":0,\"args\":{\"name\":\""
        << (rank == 0 ? "master" : "remote-" + std::to_string(rank))
        << "\"}}";
    first = false;
    for (const Span& s : probes[rank].spans()) {
      out << ",\n{\"name\":\"" << layer_name(s.layer)
          << "\",\"ph\":\"X\",\"pid\":" << rank << ",\"tid\":0,\"ts\":"
          << static_cast<double>(s.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << "}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
