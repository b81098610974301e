#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace itag::obs {

uint64_t ApproxQuantile(const MetricSample& sample, double q) {
  if (sample.kind != MetricKind::kHistogram || sample.count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, ceil) in cumulative order.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(sample.count)));
  if (rank == 0) rank = 1;
  if (rank > sample.count) rank = sample.count;
  uint64_t seen = 0;
  size_t last_nonempty = kHistogramBuckets;
  // Never walk past the fixed bucket model, whatever length the (already
  // codec-validated) sample carries.
  size_t n = std::min(sample.buckets.size(), kHistogramBuckets);
  for (size_t i = 0; i < n; ++i) {
    if (sample.buckets[i] > 0) last_nonempty = i;
    seen += sample.buckets[i];
    if (seen >= rank) {
      return i + 1 == kHistogramBuckets ? HistogramBucketLowerBound(i)
                                        : HistogramBucketUpperBound(i);
    }
  }
  // Reachable when the snapshot tore between count and the buckets (count
  // is incremented first, so the buckets may sum to count-1): answer with
  // the highest bucket that has data instead of a saturation sentinel.
  if (last_nonempty == kHistogramBuckets) return 0;
  return last_nonempty + 1 == kHistogramBuckets
             ? HistogramBucketLowerBound(last_nonempty)
             : HistogramBucketUpperBound(last_nonempty);
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: worker threads and daemons may bump metrics during
  // static destruction; a destroyed registry would dangle their pointers.
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::Entry* MetricsRegistry::GetEntry(const std::string& name,
                                                 MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
    it = metrics_.emplace(name, std::move(entry)).first;
  }
  return it->second.kind == kind ? &it->second : nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  Entry* e = GetEntry(name, MetricKind::kCounter);
  if (e != nullptr) return e->counter.get();
  static Counter* dummy = new Counter();  // kind clash: detached sink
  return dummy;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  Entry* e = GetEntry(name, MetricKind::kGauge);
  if (e != nullptr) return e->gauge.get();
  static Gauge* dummy = new Gauge();
  return dummy;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  Entry* e = GetEntry(name, MetricKind::kHistogram);
  if (e != nullptr) return e->histogram.get();
  static Histogram* dummy = new Histogram();
  return dummy;
}

std::vector<MetricSample> MetricsRegistry::Snapshot(
    const std::string& prefix) const {
  std::vector<MetricSample> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : metrics_) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    MetricSample s;
    s.name = name;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        s.count = entry.counter->value();
        break;
      case MetricKind::kGauge:
        s.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        s.count = h.count();
        s.sum = h.sum();
        s.buckets.resize(kHistogramBuckets);
        for (size_t i = 0; i < kHistogramBuckets; ++i) {
          s.buckets[i] = h.bucket(i);
        }
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

std::string RenderText(const std::vector<MetricSample>& samples) {
  std::string out;
  char buf[192];
  for (const MetricSample& s : samples) {
    switch (s.kind) {
      case MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), "%s %llu\n", s.name.c_str(),
                      static_cast<unsigned long long>(s.count));
        break;
      case MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), "%s %lld\n", s.name.c_str(),
                      static_cast<long long>(s.gauge));
        break;
      case MetricKind::kHistogram:
        std::snprintf(
            buf, sizeof(buf),
            "%s count=%llu sum=%llu p50=%llu p95=%llu p99=%llu\n",
            s.name.c_str(), static_cast<unsigned long long>(s.count),
            static_cast<unsigned long long>(s.sum),
            static_cast<unsigned long long>(ApproxQuantile(s, 0.50)),
            static_cast<unsigned long long>(ApproxQuantile(s, 0.95)),
            static_cast<unsigned long long>(ApproxQuantile(s, 0.99)));
        break;
    }
    out += buf;
  }
  return out;
}

}  // namespace itag::obs
