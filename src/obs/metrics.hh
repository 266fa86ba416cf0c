/**
 * @file
 * Process-wide host-metrics registry: counters, gauges and log-scale
 * histograms describing the *host's* behaviour (thread-pool worker
 * utilization, queue depths, per-point sweep wall times) as opposed
 * to the per-run simulated statistics in common/stats.hh.
 *
 * Metrics are get-or-created by name and live for the process, so
 * emitters in different layers (the thread pool, the sweep engine,
 * benches) can update the same metric without plumbing.  Every value
 * is atomic — emitting from worker threads is safe and cheap.  The
 * registry exports into --stats-json ("host" section), --profile-json
 * and the pipesim-bench result documents.
 *
 * The key-set contract: code paths must *touch* (get-or-create) the
 * metrics they may emit before diverging on worker count, so the
 * exported key set is identical for --jobs 1 and --jobs 8 even when
 * the values differ (tests/test_experiment.cc relies on this).  The
 * sweep's robustness metrics honour it too: store.hits/store.misses/
 * store.recovered (the crash-safe result store, src/store/) and
 * point.timeouts (--point-deadline-ms cancellations) are pre-created
 * for every sweep, store-backed or not.
 */

#ifndef PIPESIM_OBS_METRICS_HH
#define PIPESIM_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pipesim::obs
{

class JsonWriter;

/** A monotonically increasing process-wide counter. */
class MetricCounter
{
  public:
    void add(std::uint64_t n = 1)
    {
        _v.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return _v.load(std::memory_order_relaxed);
    }
    void reset() { _v.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _v{0};
};

/** A last-value-wins gauge (also tracks the maximum ever set). */
class MetricGauge
{
  public:
    void
    set(std::int64_t v)
    {
        _v.store(v, std::memory_order_relaxed);
        std::int64_t seen = _max.load(std::memory_order_relaxed);
        while (v > seen &&
               !_max.compare_exchange_weak(seen, v,
                                           std::memory_order_relaxed)) {
        }
    }
    std::int64_t value() const
    {
        return _v.load(std::memory_order_relaxed);
    }
    std::int64_t max() const
    {
        return _max.load(std::memory_order_relaxed);
    }
    void
    reset()
    {
        _v.store(0, std::memory_order_relaxed);
        _max.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> _v{0};
    std::atomic<std::int64_t> _max{0};
};

/**
 * A log2-bucketed histogram for latency-like values spanning many
 * orders of magnitude.  Bucket i holds samples in [2^i, 2^(i+1));
 * bucket 0 additionally holds zero.  Boundaries are fixed by
 * construction — independent of the samples — so exported summaries
 * are comparable across runs (tests assert the boundaries).
 */
class LogHistogram
{
  public:
    static constexpr unsigned numBuckets = 64;

    /** Lower bound of bucket @p i (0, 1, 2, 4, 8, ...). */
    static std::uint64_t
    bucketLowerBound(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t(1) << i;
    }

    /** Index of the bucket @p value falls into. */
    static unsigned bucketIndex(std::uint64_t value);

    void sample(std::uint64_t value);

    std::uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }
    std::uint64_t min() const;
    std::uint64_t max() const
    {
        return _max.load(std::memory_order_relaxed);
    }
    double mean() const;

    /** Smallest value v such that >= @p q of samples are <= v's
     *  bucket upper bound (bucket-resolution quantile). */
    std::uint64_t quantile(double q) const;

    std::uint64_t bucketCount(unsigned i) const
    {
        return _buckets[i].load(std::memory_order_relaxed);
    }

    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, numBuckets> _buckets{};
    std::atomic<std::uint64_t> _count{0};
    std::atomic<std::uint64_t> _sum{0};
    std::atomic<std::uint64_t> _min{~std::uint64_t(0)};
    std::atomic<std::uint64_t> _max{0};
};

/**
 * The process-wide registry.  counter()/gauge()/histogram() return a
 * reference valid for the process lifetime; creating and updating are
 * thread-safe.  A name is bound to one kind on first use (reusing it
 * as another kind is a programming error and panics).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    MetricCounter &counter(const std::string &name);
    MetricGauge &gauge(const std::string &name);
    LogHistogram &histogram(const std::string &name);

    /** @return true when any metric has been registered. */
    bool empty() const;

    /** All registered names, sorted, with a kind tag. */
    struct Entry
    {
        std::string name;
        enum class Kind { Counter, Gauge, Histogram } kind;
    };
    std::vector<Entry> entries() const;

    /**
     * Emit the registry on @p w as two objects:
     *   "metrics": {"pool.tasks": 42, "pool.queue_depth_peak": 3, ...}
     *   "histograms": {"sweep.point_ns": {"count":,"min":,"max":,
     *                  "mean":,"p50":,"p90":,"p99":}, ...}
     * Keys are sorted; gauges export value and "<name>_peak".
     */
    void writeJson(JsonWriter &w) const;

    /** Zero every metric (keys survive; tests use this). */
    void resetAll();

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<MetricCounter>> _counters;
    std::map<std::string, std::unique_ptr<MetricGauge>> _gauges;
    std::map<std::string, std::unique_ptr<LogHistogram>> _histograms;
};

/**
 * Refresh the process gauges:
 *
 *   process.uptime_seconds  wall seconds since the process started
 *                           (steady clock, anchored at static init)
 *   process.max_rss_bytes   peak resident set size (getrusage)
 *
 * Cheap enough to call right before every export; the stats-json
 * "host" section does, so the keys are part of every host export's
 * key set.
 */
void updateProcessGauges();

} // namespace pipesim::obs

#endif // PIPESIM_OBS_METRICS_HH
