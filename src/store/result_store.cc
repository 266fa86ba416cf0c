#include "store/result_store.hh"

#include <array>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/file.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/sha256.hh"
#include "common/state_io.hh"
#include "replay/checkpoint.hh"
#include "replay/trace_format.hh"

namespace pipesim::store
{

namespace
{

constexpr std::array<std::uint8_t, 8> kMagic = {'P', 'I', 'P', 'E',
                                                'R', 'E', 'S', 0};

/** Header: magic, u32 version, u32 reserved, u32 CRC of the above. */
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4;

/** Per-record framing: u32 payload length, u32 payload CRC-32. */
constexpr std::size_t kFrameBytes = 8;

void
putString(StateWriter &w, const std::string &s)
{
    w.u32(std::uint32_t(s.size()));
    w.bytes(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

std::string
takeString(StateReader &r, std::size_t maxLen, const char *what)
{
    const std::uint32_t len = r.u32();
    if (len > maxLen)
        r.fail(what, " length ", len, " exceeds the plausibility bound ",
               maxLen);
    std::string s(len, '\0');
    r.bytes(reinterpret_cast<std::uint8_t *>(s.data()), len);
    return s;
}

void
putHexKey(StateWriter &w, const std::string &hex)
{
    if (hex.size() != 64)
        fatal("result store: content key must be 64 hex chars, got ",
              hex.size());
    const auto nibble = [&](char c) -> std::uint8_t {
        if (c >= '0' && c <= '9')
            return std::uint8_t(c - '0');
        if (c >= 'a' && c <= 'f')
            return std::uint8_t(c - 'a' + 10);
        fatal("result store: content key must be lower-case hex, "
              "got '", c, "'");
    };
    for (unsigned i = 0; i < 64; i += 2)
        w.u8(std::uint8_t(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
}

std::string
takeHexKey(StateReader &r)
{
    std::array<std::uint8_t, 32> raw;
    r.bytes(raw.data(), raw.size());
    static const char hex[] = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (const std::uint8_t b : raw) {
        s += hex[b >> 4];
        s += hex[b & 0xf];
    }
    return s;
}

StoreEntry
decodePayload(const std::vector<std::uint8_t> &payload,
              std::size_t fileOffset)
{
    StateReader r(payload,
                  "result store record at byte offset " +
                      std::to_string(fileOffset));
    StoreEntry e;
    e.keyHex = takeHexKey(r);
    e.label = takeString(r, 4096, "label");
    e.result.totalCycles = r.u64();
    e.result.instructions = r.u64();
    const std::uint32_t nCounters = r.u32();
    if (nCounters > 1u << 20)
        r.fail("implausible counter count ", nCounters);
    for (std::uint32_t i = 0; i < nCounters; ++i) {
        std::string name = takeString(r, 4096, "counter name");
        e.result.counters[std::move(name)] = r.u64();
    }
    const std::uint32_t nMeta = r.u32();
    if (nMeta > 1u << 20)
        r.fail("implausible meta count ", nMeta);
    for (std::uint32_t i = 0; i < nMeta; ++i) {
        std::string key = takeString(r, 4096, "meta key");
        e.result.meta[std::move(key)] =
            takeString(r, 1u << 20, "meta value");
    }
    r.expectEnd();
    return e;
}

unsigned
crashAfterPutsFromEnv()
{
    const char *env = std::getenv("PIPESIM_STORE_CRASH_AFTER_PUTS");
    if (!env || !*env)
        return 0;
    return unsigned(std::strtoul(env, nullptr, 10));
}

} // namespace

std::string
resultKeyHex(const SimConfig &config, const ResultKeyParams &params)
{
    StateWriter w;
    putString(w, params.programSha256);
    putString(w, replay::configSha256(config));
    putString(w, params.engine);
    putString(w, params.traceSha256);
    w.u32(params.samplePeriod);
    w.u32(params.sampleWarmup);
    w.u32(params.sampleMeasure);
    // The point's fault stream changes its result, so it is part of
    // the identity; a fault-free point keys identically no matter
    // what seed the (inactive) injector holds.
    if (config.fault.enabled()) {
        w.u32(config.fault.kinds);
        w.u64(config.fault.seed);
        std::uint64_t rateBits = 0;
        static_assert(sizeof(rateBits) == sizeof(config.fault.rate));
        std::memcpy(&rateBits, &config.fault.rate, sizeof(rateBits));
        w.u64(rateBits);
        w.u32(config.fault.maxLatencyJitter);
    } else {
        w.u32(0);
        w.u64(0);
        w.u64(0);
        w.u32(0);
    }
    return sha256Hex(w.data());
}

ResultStore::ResultStore(const std::string &dir)
    : _crashAfterPuts(crashAfterPutsFromEnv())
{
    if (dir.empty())
        fatal("result store: the store directory must not be empty");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("result store: cannot create directory ", dir, ": ",
              ec.message());
    _path = dir + "/results.piperes";
    acquireWriterLock(dir);
    // From here on the lock is held: any constructor failure (a
    // corrupt journal is a FatalError) must release it, or the fd
    // would pin the lock for the rest of the process.
    try {
        loadJournal();
    } catch (...) {
        if (_file)
            std::fclose(_file);
        _file = nullptr;
        ::close(_lockFd);
        _lockFd = -1;
        throw;
    }
}

void
ResultStore::loadJournal()
{
    std::error_code ec;
    std::vector<std::uint8_t> bytes;
    {
        std::ifstream in(_path, std::ios::binary);
        if (in) {
            bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        }
    }

    if (bytes.size() < kHeaderBytes) {
        // Missing, empty or torn-off mid-header-write: nothing usable
        // was ever journaled, so start fresh.  (A *damaged* complete
        // header is fatal below — it means the file is not ours.)
        _recoveredBytes = bytes.size();
        std::FILE *f = std::fopen(_path.c_str(), "wb");
        if (!f)
            fatal("result store: cannot create ", _path);
        writeHeader(f);
        std::fclose(f);
    } else {
        if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0)
            fatal("result store ", _path,
                  ": bad magic (not a PIPERES file, at byte offset 0)");
        const auto u32At = [&](std::size_t pos) {
            return std::uint32_t(bytes[pos]) |
                   std::uint32_t(bytes[pos + 1]) << 8 |
                   std::uint32_t(bytes[pos + 2]) << 16 |
                   std::uint32_t(bytes[pos + 3]) << 24;
        };
        const std::uint32_t version = u32At(8);
        if (version != resultStoreFormatVersion)
            fatal("result store ", _path, ": unsupported version ",
                  version, " (this build reads version ",
                  resultStoreFormatVersion, ")");
        if (u32At(16) != replay::crc32(bytes.data(), 16))
            fatal("result store ", _path,
                  ": header CRC mismatch (at byte offset 16)");

        // Replay the journal.  A record that runs off the end of the
        // file is a torn tail (recovered); a record whose CRC fails
        // with more bytes *after* it is interior corruption (fatal).
        std::size_t pos = kHeaderBytes;
        std::size_t goodEnd = pos;
        while (pos < bytes.size()) {
            if (bytes.size() - pos < kFrameBytes)
                break; // torn tail: frame itself is incomplete
            const std::uint32_t len = u32At(pos);
            const std::uint32_t crc = u32At(pos + 4);
            if (bytes.size() - pos - kFrameBytes < len)
                break; // torn tail: payload is incomplete
            const std::uint8_t *payload = bytes.data() + pos + kFrameBytes;
            if (replay::crc32(payload, len) != crc) {
                if (pos + kFrameBytes + len == bytes.size())
                    break; // torn tail: last record damaged in place
                fatal("result store ", _path,
                      ": record CRC mismatch at byte offset ", pos,
                      " with ",
                      bytes.size() - (pos + kFrameBytes + len),
                      " bytes following it (interior corruption -- "
                      "the journal cannot be trusted; delete it to "
                      "rebuild)");
            }
            StoreEntry e = decodePayload(
                std::vector<std::uint8_t>(payload, payload + len), pos);
            if (!_entries.count(e.keyHex))
                _order.push_back(e.keyHex);
            _entries[e.keyHex] = std::move(e);
            pos += kFrameBytes + len;
            goodEnd = pos;
        }
        if (goodEnd != bytes.size()) {
            _recoveredBytes = bytes.size() - goodEnd;
            std::filesystem::resize_file(_path, goodEnd, ec);
            if (ec)
                fatal("result store: cannot truncate torn tail of ",
                      _path, ": ", ec.message());
        }
    }

    openForAppend();
}

ResultStore::~ResultStore()
{
    if (_file)
        std::fclose(_file);
    if (_lockFd >= 0)
        ::close(_lockFd); // releases the advisory flock
}

void
ResultStore::acquireWriterLock(const std::string &dir)
{
    const std::string lockPath = dir + "/results.piperes.lock";
    _lockFd = ::open(lockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                     0644);
    if (_lockFd < 0)
        fatal("result store: cannot open lock file ", lockPath, ": ",
              std::strerror(errno));
    if (::flock(_lockFd, LOCK_EX | LOCK_NB) != 0) {
        // Contended: the file's content names the current holder
        // (written below by whoever won the lock).
        char buf[128] = {};
        const ssize_t n = ::pread(_lockFd, buf, sizeof(buf) - 1, 0);
        std::string holder =
            n > 0 ? std::string(buf, std::size_t(n)) : "another process";
        while (!holder.empty() &&
               (holder.back() == '\n' || holder.back() == '\r'))
            holder.pop_back();
        ::close(_lockFd);
        _lockFd = -1;
        fatal("result store ", dir, " is already open for writing by ",
              holder, " (single-writer advisory lock on ", lockPath,
              "); two concurrent sweeps must not share a "
              "--store-dir -- wait for the holder or use a different "
              "directory");
    }
    // Won the lock: record our identity for the next loser's message.
#ifdef __GLIBC__
    const char *name = program_invocation_short_name;
#else
    const char *name = "pipesim";
#endif
    const std::string ident =
        "pid " + std::to_string(::getpid()) + " (" + name + ")\n";
    if (::ftruncate(_lockFd, 0) != 0 ||
        ::pwrite(_lockFd, ident.data(), ident.size(), 0) < 0) {
        // Best effort: the lock itself is held either way.
    }
}

void
ResultStore::writeHeader(std::FILE *f) const
{
    std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
    StateWriter w;
    w.u32(resultStoreFormatVersion);
    w.u32(0); // reserved
    out.insert(out.end(), w.data().begin(), w.data().end());
    const std::uint32_t crc = replay::crc32(out.data(), out.size());
    StateWriter c;
    c.u32(crc);
    out.insert(out.end(), c.data().begin(), c.data().end());
    if (std::fwrite(out.data(), 1, out.size(), f) != out.size() ||
        std::fflush(f) != 0)
        fatal("result store: cannot write header of ", _path);
}

void
ResultStore::openForAppend()
{
    _file = std::fopen(_path.c_str(), "ab");
    if (!_file)
        fatal("result store: cannot open ", _path, " for appending");
}

std::vector<std::uint8_t>
ResultStore::encodeRecord(const StoreEntry &e) const
{
    StateWriter w;
    putHexKey(w, e.keyHex);
    putString(w, e.label);
    w.u64(e.result.totalCycles);
    w.u64(e.result.instructions);
    w.u32(std::uint32_t(e.result.counters.size()));
    for (const auto &[name, value] : e.result.counters) {
        putString(w, name);
        w.u64(value);
    }
    w.u32(std::uint32_t(e.result.meta.size()));
    for (const auto &[key, value] : e.result.meta) {
        putString(w, key);
        putString(w, value);
    }
    const std::vector<std::uint8_t> payload = w.data();
    StateWriter rec;
    rec.u32(std::uint32_t(payload.size()));
    rec.u32(replay::crc32(payload.data(), payload.size()));
    rec.bytes(payload.data(), payload.size());
    return rec.take();
}

std::optional<SimResult>
ResultStore::lookup(const std::string &keyHex) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _entries.find(keyHex);
    if (it == _entries.end())
        return std::nullopt;
    return it->second.result;
}

void
ResultStore::put(const std::string &keyHex, const std::string &label,
                 const SimResult &result)
{
    std::lock_guard<std::mutex> lock(_mutex);
    StoreEntry e{keyHex, label, result};
    const std::vector<std::uint8_t> record = encodeRecord(e);
    // One fwrite + one fflush per record: after the flush the record
    // is out of the process, so even SIGKILL loses at most the
    // record currently being written (recovered as a torn tail).
    if (std::fwrite(record.data(), 1, record.size(), _file) !=
            record.size() ||
        std::fflush(_file) != 0)
        fatal("result store: cannot append to ", _path);
    if (!_entries.count(keyHex))
        _order.push_back(keyHex);
    _entries[keyHex] = std::move(e);
    ++_puts;
    if (_crashAfterPuts && _puts >= _crashAfterPuts)
        std::raise(SIGKILL); // chaos hook; see result_store.hh
}

std::size_t
ResultStore::entries() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::vector<const StoreEntry *>
ResultStore::entriesInOrder() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const StoreEntry *> out;
    out.reserve(_order.size());
    for (const std::string &key : _order)
        out.push_back(&_entries.at(key));
    return out;
}

std::uint64_t
ResultStore::compact()
{
    std::lock_guard<std::mutex> lock(_mutex);
    const std::string tmp = _path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("result store: cannot create ", tmp);
    writeHeader(f);
    std::uint64_t total = kHeaderBytes;
    for (const std::string &key : _order) {
        const std::vector<std::uint8_t> record =
            encodeRecord(_entries.at(key));
        if (std::fwrite(record.data(), 1, record.size(), f) !=
            record.size()) {
            std::fclose(f);
            fatal("result store: cannot write ", tmp);
        }
        total += record.size();
    }
    if (std::fflush(f) != 0 || std::fclose(f) != 0)
        fatal("result store: cannot finish writing ", tmp);
    if (_file) {
        std::fclose(_file);
        _file = nullptr;
    }
    if (std::rename(tmp.c_str(), _path.c_str()) != 0)
        fatal("result store: cannot rename ", tmp, " over ", _path);
    openForAppend();
    return total;
}

std::string
describeStore(const ResultStore &store)
{
    std::ostringstream os;
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(store.path(), ec);
    os << "store:     " << store.path() << "\n"
       << "entries:   " << store.entries() << "\n"
       << "bytes:     " << (ec ? 0 : size) << "\n";
    if (store.recoveredBytes())
        os << "recovered: " << store.recoveredBytes()
           << " torn-tail bytes truncated at open\n";
    else
        os << "recovered: clean\n";
    for (const StoreEntry *e : store.entriesInOrder())
        os << "  " << e->label << "  key=" << e->keyHex.substr(0, 16)
           << "  cycles=" << e->result.totalCycles
           << "  insts=" << e->result.instructions << "\n";
    return os.str();
}

} // namespace pipesim::store
