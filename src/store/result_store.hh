/**
 * @file
 * PIPERES: the journaled, content-addressed on-disk sweep result
 * store behind crash-safe resumable sweeps (docs/robustness.md,
 * "Crash safety and resume").
 *
 * One store is a single append-only journal file
 * `<dir>/results.piperes`.  Each completed sweep point's counters and
 * meta are appended under a content key — SHA-256 over the program
 * image hash, the canonical machine-configuration hash
 * (replay::configSha256, the same cache-key machinery the PIPECKPT
 * checkpoint store uses), the engine (cycle / trace-exact /
 * trace-sampled), the trace content hash and the sampling parameters,
 * plus the point's derived fault-injection stream — so a result is
 * only ever served back for the exact simulation that produced it.
 * Failed (ERR) points are never journaled: a resumed sweep always
 * re-attempts them.
 *
 * File layout (all integers little-endian):
 *
 *     header   magic "PIPERES\0", u32 version, u32 reserved,
 *              u32 CRC-32 of everything above
 *     records  per record: u32 payload bytes, u32 CRC-32 of the
 *              payload, payload (state_io stream: 32-byte raw key,
 *              label, totalCycles, instructions, counters, meta)
 *
 * Unlike PIPETRC/PIPECKPT there is no whole-file digest: the store
 * must stay appendable and must survive being killed mid-write.
 * Recovery discipline on open:
 *
 *  - a torn tail (the journal ends inside a record — the writer died
 *    mid-append, or the file was truncated) is *recovered*: the
 *    partial record is truncated away, every complete record before
 *    it is served, and the `store.recovered` metric is bumped;
 *  - interior corruption (a record whose CRC fails while more
 *    records follow it, or a damaged header) is a FatalError naming
 *    the byte offset — the journal cannot be trusted and must be
 *    rebuilt.
 *
 * Appends are serialized under the store's mutex and flushed
 * record-at-a-time, so a SIGKILL at any instant loses at most the
 * record being written.
 *
 * Single-writer discipline: opening a store takes an exclusive
 * advisory flock(2) on `<dir>/results.piperes.lock` for the store's
 * lifetime, so two concurrent sweeps (or a sweep and a
 * `pipesim-trace store compact`) pointed at the same --store-dir can
 * never interleave journal appends — the second opener gets a
 * FatalError naming the holder (pid and program).  The
 * lock is advisory per open file description: it protects against
 * other ResultStore instances (same or different process), dies with
 * the holding process (SIGKILL releases it), and never outlives a
 * crash.
 */

#ifndef PIPESIM_STORE_RESULT_STORE_HH
#define PIPESIM_STORE_RESULT_STORE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/simulator.hh"

namespace pipesim::store
{

/** Current (and only) PIPERES format version. */
inline constexpr std::uint32_t resultStoreFormatVersion = 1;

/**
 * Everything besides the machine configuration that selects a
 * result: which engine produced it, from which trace, with which
 * sampling parameters.  The program hash comes from
 * replay::programSha256; the config hash is derived internally from
 * the SimConfig (replay::configSha256 plus the point's fault stream).
 */
struct ResultKeyParams
{
    std::string programSha256; //!< hex digest of the program image
    std::string engine;        //!< "cycle" | "trace-exact" | "trace-sampled"
    std::string traceSha256;   //!< trace content hash; empty for cycle
    std::uint32_t samplePeriod = 0;
    std::uint32_t sampleWarmup = 0;
    std::uint32_t sampleMeasure = 0;
};

/**
 * The content key for one sweep point: 64 lower-case hex chars.
 * Pure function of the arguments; independent of worker count, sweep
 * composition and wall-clock.  Watchdog limits (maxCycles,
 * progressWindow) are deliberately excluded — they can only abort a
 * run, never change a completed result.
 */
std::string resultKeyHex(const SimConfig &config,
                         const ResultKeyParams &params);

/** One journaled result. */
struct StoreEntry
{
    std::string keyHex; //!< 64 hex chars (resultKeyHex)
    std::string label;  //!< human provenance, e.g. "16-16:128"
    SimResult result;   //!< counters + meta of the completed point
};

class ResultStore
{
  public:
    /**
     * Open (or create) the journal under @p dir, replaying it with
     * the recovery discipline above.
     * @throws FatalError on interior corruption, a damaged header, an
     *         unwritable directory, or when another ResultStore holds
     *         the directory's single-writer lock (the error names the
     *         holder).
     */
    explicit ResultStore(const std::string &dir);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** The journal file path (`<dir>/results.piperes`). */
    const std::string &path() const { return _path; }

    /** A stored result by content key, if one was journaled. */
    std::optional<SimResult> lookup(const std::string &keyHex) const;

    /**
     * Append one completed result and flush it to the journal.
     * A repeated key supersedes the earlier record (last one wins on
     * replay; compact() drops the shadowed ones).
     */
    void put(const std::string &keyHex, const std::string &label,
             const SimResult &result);

    /** Number of distinct keys currently served. */
    std::size_t entries() const;

    /** Journal bytes truncated by torn-tail recovery at open. */
    std::uint64_t recoveredBytes() const { return _recoveredBytes; }

    /**
     * Rewrite the journal atomically (temp + rename, the
     * PIPETRC/PIPECKPT discipline) keeping one record per key, in
     * first-seen order.
     * @return journal size in bytes after compaction.
     */
    std::uint64_t compact();

    /** Entries in first-seen journal order (for inspection). */
    std::vector<const StoreEntry *> entriesInOrder() const;

  private:
    void writeHeader(std::FILE *f) const;
    void openForAppend();
    void acquireWriterLock(const std::string &dir);
    void loadJournal();
    std::vector<std::uint8_t> encodeRecord(const StoreEntry &e) const;

    mutable std::mutex _mutex;
    std::string _path;
    std::FILE *_file = nullptr;
    int _lockFd = -1; //!< holds the single-writer advisory flock
    std::map<std::string, StoreEntry> _entries; //!< by keyHex
    std::vector<std::string> _order;            //!< first-seen key order
    std::uint64_t _recoveredBytes = 0;

    /**
     * Chaos hook for the kill-resume smoke test
     * (scripts/store_smoke.sh): when the environment variable
     * PIPESIM_STORE_CRASH_AFTER_PUTS is a positive integer N, the
     * process raises SIGKILL immediately after the Nth successful
     * append — a deterministic mid-sweep crash with N records safely
     * journaled.  Zero (or unset) disables the hook.
     */
    unsigned _crashAfterPuts = 0;
    unsigned _puts = 0;
};

/** Human-readable summary of a store (entries, bytes, recovery). */
std::string describeStore(const ResultStore &store);

} // namespace pipesim::store

#endif // PIPESIM_STORE_RESULT_STORE_HH
