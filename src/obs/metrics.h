#ifndef ITAG_OBS_METRICS_H_
#define ITAG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace itag::obs {

// The metrics subsystem: lock-cheap counters, gauges, and fixed-bucket
// histograms behind a name-keyed MetricsRegistry.
//
// Design, following the common/seqlock.h philosophy (readers never block
// writers, writers never block each other):
//  * Every metric is a handful of relaxed atomics. Increment/observe is a
//    single fetch_add on the hot path — no mutex, no false-sharing-prone
//    shared write lock — and ThreadSanitizer-clean by construction. The
//    expensive part of a latency probe is not the atomics but the two
//    steady_clock reads (tens of ns via vDSO, ~100 ns when the clock
//    falls back to a syscall): invisible behind a wire round trip or a
//    shard lock, but measurable on sub-µs in-process paths — bench_net's
//    Step(0) floor op tracks exactly this overhead across PRs.
//  * The registry's mutex is taken only at registration (once per metric
//    name per process, at component construction) and at Snapshot() time
//    (the monitoring poll), never on the increment path: components cache
//    the returned pointers.
//  * Metrics are never unregistered; pointers handed out stay valid for
//    the registry's lifetime, so cached pointers need no lifetime dance.
//  * Reads are per-word atomic. A histogram snapshot taken mid-burst may
//    be a few observations "torn" between count and a bucket — acceptable
//    for monitoring, and exactly the trade the seqlock'd ShardStats makes.
//
// Naming convention (the dotted hierarchy the docs/observability.md
// catalogue indexes): `<layer>.<subsystem>.<metric>[_<unit>]`, e.g.
// `api.ProjectQuery.latency_us`, `storage.wal.appends`.

/// Wire-visible discriminator of a MetricSample.
enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// Monotonic event counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, open connections); may go up and down.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Number of histogram buckets. Bucket `i` counts observations `v` with
/// floor(log2(max(v,1))) == i — i.e. power-of-two buckets over the value
/// (microseconds for latency histograms): bucket 0 holds v in [0,2),
/// bucket 1 holds [2,4), ... bucket i holds [2^i, 2^(i+1)). The last
/// bucket absorbs everything >= 2^(kHistogramBuckets-1) (~134 s in µs).
/// Every histogram shares these bounds, so the wire format carries only
/// the counts and docs/observability.md documents the bounds once.
inline constexpr size_t kHistogramBuckets = 28;

/// The bucket index an observation lands in.
inline size_t HistogramBucketIndex(uint64_t value) {
  if (value < 2) return 0;
  size_t idx = 63 - static_cast<size_t>(__builtin_clzll(value));
  return idx < kHistogramBuckets ? idx : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0, else 2^i).
inline constexpr uint64_t HistogramBucketLowerBound(size_t i) {
  return i == 0 ? 0 : (uint64_t{1} << i);
}

/// Exclusive upper bound of bucket `i` (the last bucket is unbounded; its
/// reported bound is a saturation marker, not a real ceiling).
inline constexpr uint64_t HistogramBucketUpperBound(size_t i) {
  return uint64_t{1} << (i + 1);
}

/// Fixed-bucket histogram of non-negative integer observations
/// (latencies in microseconds, batch sizes in rows).
class Histogram {
 public:
  void Observe(uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
};

/// RAII latency probe: observes the elapsed wall time in microseconds into
/// `hist` on destruction. Null-safe (a disabled probe costs one branch).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// One metric's point-in-time value, as carried by the v3 MetricsQuery
/// response (see docs/wire-protocol.md) and rendered by RenderText().
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Counter value, or histogram observation count.
  uint64_t count = 0;
  /// Gauge value (signed).
  int64_t gauge = 0;
  /// Histogram sum of observations.
  uint64_t sum = 0;
  /// Histogram bucket counts (kHistogramBuckets entries); empty for
  /// counters and gauges.
  std::vector<uint64_t> buckets;
};

/// Estimated q-quantile of a histogram sample: the exclusive upper bound
/// of the first bucket whose cumulative count reaches ceil(q * count)
/// (the saturated last bucket reports its lower bound). Edge behavior,
/// pinned by obs_test: 0 when the sample is empty (count == 0) or not a
/// histogram; q outside [0,1] clamps; a torn snapshot whose count exceeds
/// the bucket sum falls back to the last bucket holding data; a
/// short/truncated bucket vector walks only what it has.
uint64_t ApproxQuantile(const MetricSample& sample, double q);

/// Name-keyed registry of process metrics. Get-or-create is mutex-guarded
/// (called once per metric at component construction); the returned
/// pointers are valid for the registry's lifetime and their hot-path
/// operations are lock-free. Thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide default registry every subsystem registers into
  /// (api::Service, core::ShardedSystem, net::Server, storage::Database).
  /// Never destroyed, so cached metric pointers outlive static teardown.
  static MetricsRegistry& Default();

  /// Gets or creates the named metric. If the name already exists with a
  /// *different* kind (a programming error — names are internal), the call
  /// returns a process-lifetime detached dummy so callers never crash and
  /// never need a null check; the registry keeps the first registration.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Point-in-time samples of every metric whose name starts with
  /// `prefix` (empty = all), sorted by name — the deterministic order the
  /// wire tier and text renderer rely on.
  std::vector<MetricSample> Snapshot(const std::string& prefix = "") const;

  /// Number of registered metrics (tests).
  size_t size() const;

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetEntry(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  /// std::map: sorted iteration gives Snapshot its stable order.
  std::map<std::string, Entry> metrics_;
};

/// Plain-text dump of a snapshot, one metric per line:
///   `<name> <value>` for counters and gauges,
///   `<name> count=N sum=S p50=A p95=B p99=C` for histograms.
/// Stable, grep-friendly (the CI loadgen smoke greps it), and identical
/// whether rendered server-side (itag_server's shutdown dump) or from a
/// MetricsQuery response (itag_client --metrics).
std::string RenderText(const std::vector<MetricSample>& samples);

}  // namespace itag::obs

#endif  // ITAG_OBS_METRICS_H_
