/**
 * @file
 * FNV-1a, 64-bit: the project's one content hash.
 *
 * It keys TraceCache entries and sweep cells, stamps the CNTRF001
 * params_hash provenance field, and checksums CNCKPT01 checkpoints and
 * result-cache entries. Those values are persisted and compared across
 * runs, so the two constants below are part of the file formats and
 * must never change. FNV-1a is not cryptographic: it detects
 * accidental corruption and names deterministic content, nothing
 * adversarial.
 */

#ifndef CNSIM_COMMON_FNV_HH
#define CNSIM_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>

namespace cnsim
{

/** FNV-1a 64-bit hash of the @p n bytes at @p data. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace cnsim

#endif // CNSIM_COMMON_FNV_HH
