#include "farm/cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "common/bytes.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "farm/cell.hh"
#include "sample/checkpoint.hh"

namespace cnsim
{
namespace farm
{

namespace
{

/** Entry layout: this magic, a kind byte ('r' or 'c'), the payload,
 *  then a u64 FNV-1a of every byte before it. */
constexpr char entry_magic[8] = {'C', 'N', 'F', 'A', 'R', 'M', '0', '2'};

/** Bytes ahead of the payload: the magic and the kind byte. */
constexpr std::size_t entry_header = sizeof(entry_magic) + 1;

/** mkdir -p: create @p dir and its ancestors; false on failure. */
bool
makeDirs(const std::string &dir)
{
    std::string partial;
    std::istringstream ss(dir);
    std::string comp;
    if (!dir.empty() && dir[0] == '/')
        partial = "/";
    while (std::getline(ss, comp, '/')) {
        if (comp.empty())
            continue;
        if (!partial.empty() && partial.back() != '/')
            partial += '/';
        partial += comp;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

} // namespace

Cache::Cache(const std::string &dir) : root(dir)
{
    if (root.empty())
        return;
    if (!makeDirs(root)) {
        warn("cannot create cache directory '%s' (%s); caching disabled",
             root.c_str(), std::strerror(errno));
        root.clear();
    }
}

std::string
Cache::entryPath(char kind, std::uint64_t key) const
{
    return root + "/" + kind + "-" + keyString(key) + ".cnf";
}

bool
Cache::loadEntry(char kind, std::uint64_t key, std::string &payload) const
{
    if (!enabled())
        return false;
    std::string path = entryPath(kind, key);
    std::string bytes;
    if (!readFile(path, bytes).ok())
        return false;

    auto reject = [&](const char *why) {
        warn("rejecting corrupt cache entry '%s' (%s); recomputing",
             path.c_str(), why);
        ::unlink(path.c_str());
        return false;
    };
    constexpr std::size_t sum_bytes = sizeof(std::uint64_t);
    if (bytes.size() < entry_header + sum_bytes ||
        std::memcmp(bytes.data(), entry_magic, sizeof(entry_magic)) != 0)
        return reject("bad magic");
    const std::size_t body = bytes.size() - sum_bytes;
    if (fnv1a(bytes.data(), body) !=
        ByteReader(bytes.data() + body, sum_bytes, path).u64())
        return reject("checksum mismatch");
    if (bytes[sizeof(entry_magic)] != kind)
        return reject("wrong entry kind");
    payload.assign(bytes, entry_header, body - entry_header);
    return true;
}

void
Cache::storeEntry(char kind, std::uint64_t key,
                  const std::string &payload) const
{
    if (!enabled())
        return;
    ByteWriter w;
    w.raw(entry_magic, sizeof(entry_magic));
    w.u8(static_cast<std::uint8_t>(kind));
    w.raw(payload.data(), payload.size());
    w.u64(fnv1a(w.bytes().data(), w.bytes().size()));

    std::string path = entryPath(kind, key);
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    if (FileStatus s = writeFile(tmp, w.bytes()); !s.ok()) {
        warn("cannot write cache entry '%s' (%s)", tmp.c_str(),
             s.error.c_str());
        ::unlink(tmp.c_str());
        return;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot publish cache entry '%s' (%s)", path.c_str(),
             std::strerror(errno));
        ::unlink(tmp.c_str());
    }
}

bool
Cache::loadResult(std::uint64_t key, RunResult &out) const
{
    std::string payload;
    if (!loadEntry('r', key, payload))
        return false;
    out = deserializeResult(payload, entryPath('r', key));
    return true;
}

void
Cache::storeResult(std::uint64_t key, const RunResult &result) const
{
    storeEntry('r', key, serializeResult(result));
}

std::shared_ptr<const std::string>
Cache::loadCkpt(std::uint64_t key) const
{
    std::string payload;
    if (!loadEntry('c', key, payload))
        return nullptr;
    // Defense in depth: the entry checksum already validated the bytes,
    // but the checkpoint deserializer is fatal-on-corrupt, so re-check
    // its own integrity envelope before trusting the blob.
    if (!sample::Checkpoint::checksumOk(payload)) {
        std::string path = entryPath('c', key);
        warn("rejecting cache entry '%s': CNCKPT01 checksum failed; "
             "recomputing",
             path.c_str());
        ::unlink(path.c_str());
        return nullptr;
    }
    return std::make_shared<const std::string>(std::move(payload));
}

void
Cache::storeCkpt(std::uint64_t key, const std::string &blob) const
{
    storeEntry('c', key, blob);
}

} // namespace farm
} // namespace cnsim
