/**
 * @file
 * The versioned binary trace format behind the trace-driven replay
 * engine (docs/trace_replay.md has the full specification).
 *
 * A trace records the committed instruction stream of one run: for
 * every retired instruction its fetch address, and — only where the
 * program image cannot supply them — the effective address of a
 * load/store and the resolved direction/target of a PBR.  Everything
 * else (opcode, operands, delay-slot counts) is re-derived at replay
 * time by decoding the program at the recorded pc.
 *
 * File layout (all integers little-endian):
 *
 *     header   magic "PIPETRC\0", u32 version, u32 reserved,
 *              u64 record count, u32 entry pc, u32 records/chunk,
 *              32-byte program SHA-256, u32 provenance length,
 *              provenance bytes (UTF-8, free form)
 *     chunks   u32 payload bytes, u32 CRC-32 of the payload,
 *              payload: delta/varint-encoded records
 *
 * Per record: one flag byte, then a zigzag-varint pc delta from the
 * previous record's pc (the first record deltas from the entry pc);
 * if the flag byte marks a memory op, a zigzag-varint effective-
 * address delta from the previous memory op's address; if it marks a
 * PBR, a zigzag-varint target delta from the record's own pc.  Delta
 * state is reset at every chunk boundary so a corrupt chunk cannot
 * poison its neighbours' decode.
 *
 * Readers never trust the input: any structural inconsistency —
 * truncation, a bad magic/version, a CRC mismatch, varints running
 * past the chunk, trailing garbage — raises FatalError with a
 * diagnostic naming the offset, never a crash or hang.
 */

#ifndef PIPESIM_REPLAY_TRACE_FORMAT_HH
#define PIPESIM_REPLAY_TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace pipesim
{
class Program;
} // namespace pipesim

namespace pipesim::replay
{

/** Current (and only) format version. */
inline constexpr std::uint32_t traceFormatVersion = 1;

/** Records per chunk used by the encoder. */
inline constexpr std::uint32_t traceChunkRecords = 4096;

/** One committed instruction, with its timing-relevant outcomes. */
using TraceRecord = isa::CommittedInst;

/** Trace identity and provenance, serialised in the header. */
struct TraceMeta
{
    Addr entry = 0;                 //!< pc fetching started at
    std::string programSha256;      //!< hex digest of the program image
    std::string provenance;         //!< free-form capture description
};

/** A fully decoded trace. */
struct Trace
{
    TraceMeta meta;
    std::vector<TraceRecord> records;

    /**
     * SHA-256 (hex) of the encoded byte stream; filled by
     * encodeTrace/decodeTrace/writeTrace/readTrace so results can be
     * attributed to an exact capture.
     */
    std::string sha256;
};

/**
 * Canonical fingerprint of a program image: SHA-256 over the format
 * mode, code base, entry, code bytes and every data segment.  Stored
 * in the trace header and re-checked at replay time.
 */
std::string programSha256(const Program &program);

/** CRC-32 (IEEE 802.3) of @p len bytes — the per-chunk checksum. */
std::uint32_t crc32(const void *data, std::size_t len);

/** Encode @p trace; also refreshes trace.sha256. */
std::vector<std::uint8_t> encodeTrace(Trace &trace);

/**
 * Decode a trace from @p bytes.  @p name labels diagnostics (file
 * path or a test label).
 * @throws FatalError on any corruption or truncation.
 */
Trace decodeTrace(const std::vector<std::uint8_t> &bytes,
                  const std::string &name);

/** Encode and write @p trace to @p path (refreshes trace.sha256). */
void writeTrace(Trace &trace, const std::string &path);

/**
 * Read and decode the trace at @p path.
 * @throws FatalError when the file is unreadable or corrupt.
 */
Trace readTrace(const std::string &path);

/** One-line human-readable summary (the `pipesim-trace inspect`
 *  output): counts, hashes, provenance. */
std::string describeTrace(const Trace &trace);

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_TRACE_FORMAT_HH
