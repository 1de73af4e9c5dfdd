//===- hamband/obs/Metrics.h - Lock-free runtime metrics -------*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: counters, gauges and log-bucketed latency
/// histograms, grouped into per-component registries, plus lightweight
/// tracing spans. Everything metric-shaped is mutation-lock-free (relaxed
/// atomics); the registry mutex is only taken at registration and snapshot
/// time, never on the hot path.
///
/// In the simulator a metric update is host work only and never advances
/// simulated time, so instrumentation cannot move a simulated figure.
///
/// Snapshots (`StatsSnapshot`) are plain value types: they merge across
/// nodes (counters add, histograms add bucket-wise) and round-trip
/// through a small JSON form — see docs/observability.md for the schema
/// and the metric-name inventory.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_OBS_METRICS_H
#define HAMBAND_OBS_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hamband {
namespace obs {

/// Number of log2 buckets in a histogram. Bucket 0 holds the value 0;
/// bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1]. 64 buckets cover
/// the full uint64 range.
inline constexpr unsigned NumHistogramBuckets = 64;

/// Maps a recorded value to its bucket index.
inline unsigned histogramBucketOf(std::uint64_t V) {
  unsigned B = static_cast<unsigned>(std::bit_width(V));
  return B < NumHistogramBuckets ? B : NumHistogramBuckets - 1;
}

/// Inclusive upper bound of bucket \p I (the value a quantile estimate
/// reports for samples landing in that bucket).
inline std::uint64_t histogramBucketUpper(unsigned I) {
  if (I == 0)
    return 0;
  if (I >= NumHistogramBuckets - 1)
    return ~std::uint64_t{0};
  return (std::uint64_t{1} << I) - 1;
}

/// A frozen copy of a histogram, mergeable across nodes.
struct HistogramSnapshot {
  std::uint64_t Count = 0;
  std::uint64_t Sum = 0;
  std::uint64_t Max = 0;
  std::array<std::uint64_t, NumHistogramBuckets> Buckets{};

  /// Upper bound of the bucket containing the \p Q-quantile sample
  /// (0 <= Q <= 1), clamped to the observed maximum. Returns 0 when empty.
  std::uint64_t quantile(double Q) const;

  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }

  void merge(const HistogramSnapshot &Other);

  bool operator==(const HistogramSnapshot &) const = default;
};

/// One completed tracing span, in simulated nanoseconds.
struct SpanRecord {
  std::string Name;
  std::uint64_t BeginNs = 0;
  std::uint64_t EndNs = 0;

  bool operator==(const SpanRecord &) const = default;
};

/// A frozen copy of a registry (or a merge of several), serializable to
/// JSON.
struct StatsSnapshot {
  std::map<std::string, std::uint64_t> Counters;
  std::map<std::string, std::int64_t> Gauges;
  std::map<std::string, HistogramSnapshot> Histograms;
  std::vector<SpanRecord> Spans;

  /// Counter-of-the-name or 0; spares callers a find() dance.
  std::uint64_t counter(const std::string &Name) const;
  std::int64_t gauge(const std::string &Name) const;
  const HistogramSnapshot *histogram(const std::string &Name) const;

  /// Folds \p Other in: counters add, gauges add, histograms merge
  /// bucket-wise, spans concatenate.
  void merge(const StatsSnapshot &Other);

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty() &&
           Spans.empty();
  }

  /// Serializes to the hamband-stats-v1 JSON object (see
  /// docs/observability.md).
  std::string toJson() const;

  /// Parses a toJson() document. Returns false on malformed input.
  static bool fromJson(const std::string &Text, StatsSnapshot &Out);

  bool operator==(const StatsSnapshot &) const = default;
};

/// Monotonic event counter. add() is wait-free.
class Counter {
public:
  void add(std::uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  std::uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> V{0};
};

/// Point-in-time signed level (queue depths, occupancy).
class Gauge {
public:
  void set(std::int64_t X) { V.store(X, std::memory_order_relaxed); }
  void add(std::int64_t D) { V.fetch_add(D, std::memory_order_relaxed); }
  std::int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> V{0};
};

/// Log2-bucketed distribution with exact count/sum/max. record() touches
/// four relaxed atomics (one CAS loop for the max) and never allocates.
class Histogram {
public:
  void record(std::uint64_t X) {
    Buckets[histogramBucketOf(X)].fetch_add(1, std::memory_order_relaxed);
    N.fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(X, std::memory_order_relaxed);
    std::uint64_t Cur = Peak.load(std::memory_order_relaxed);
    while (X > Cur &&
           !Peak.compare_exchange_weak(Cur, X, std::memory_order_relaxed))
      ;
  }

  std::uint64_t count() const { return N.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return Total.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return Peak.load(std::memory_order_relaxed); }

  HistogramSnapshot snapshot() const;
  void reset();

private:
  std::array<std::atomic<std::uint64_t>, NumHistogramBuckets> Buckets{};
  std::atomic<std::uint64_t> N{0};
  std::atomic<std::uint64_t> Total{0};
  std::atomic<std::uint64_t> Peak{0};
};

/// A named bag of metrics. counter()/gauge()/histogram() get-or-create
/// under a mutex — call them at setup time and cache the reference; the
/// returned metric objects are then lock-free and stable for the registry's
/// lifetime.
class Registry {
public:
  /// Spans beyond this many are counted (obs.spans_dropped) but not kept.
  static constexpr std::size_t MaxSpans = 256;

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Records a completed span: appends to the bounded span log and feeds
  /// the duration (EndNs - BeginNs) into the histogram of the same name,
  /// so every span stream doubles as a latency distribution.
  void recordSpan(const std::string &Name, std::uint64_t BeginNs,
                  std::uint64_t EndNs);

  StatsSnapshot snapshot() const;
  void reset();

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
  std::vector<SpanRecord> Spans;
  std::uint64_t SpansDropped = 0;
};

/// Manual span handle for latency that crosses async callbacks (a
/// discrete-event simulation has no useful RAII scope for "a request"):
/// capture the begin time at issue, finish(now) at the completion.
class Span {
public:
  Span() = default;
  Span(Registry &R, std::string Name, std::uint64_t BeginNs)
      : Reg(&R), Name(std::move(Name)), BeginNs(BeginNs) {}

  /// Records the span; idempotent (second finish is ignored).
  void finish(std::uint64_t EndNs) {
    if (!Reg)
      return;
    Reg->recordSpan(Name, BeginNs, EndNs >= BeginNs ? EndNs : BeginNs);
    Reg = nullptr;
  }

private:
  Registry *Reg = nullptr;
  std::string Name;
  std::uint64_t BeginNs = 0;
};

} // namespace obs
} // namespace hamband

#endif // HAMBAND_OBS_METRICS_H
