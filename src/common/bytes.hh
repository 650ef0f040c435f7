/**
 * @file
 * The byte layer every cnsim file format goes through (DESIGN.md 3i).
 *
 * CNTRF001 reference streams, CNCKPT01 checkpoints, the CNBLG002 event
 * log and CNFARM02 cache entries all encode, read and write their bytes
 * here, so each primitive has exactly one implementation:
 *
 *  - ByteWriter / ByteReader: little-endian fixed-width fields and
 *    u32-length-prefixed strings. Components serialize their
 *    checkpoint state through them. A ByteReader checks every read
 *    against the bytes it was given and fatal()s on an overrun, naming
 *    the source it was told it reads.
 *  - zigzag / unzigzag and the LEB128 varint (putVarint / getVarint),
 *    header-inline because the binlog encodes one record per event
 *    with them. getVarint is the one decoder, and it is strict: it
 *    rejects a varint longer than 10 bytes or past 64 bits.
 *  - readFile / writeFile: checked whole-file I/O that reports the
 *    errno text of the step that failed.
 *
 * Nothing here sets policy. The decoder returns a reason and the file
 * calls return a status; each caller decides whether a failure is
 * fatal, a warning or a cache miss.
 */

#ifndef CNSIM_COMMON_BYTES_HH
#define CNSIM_COMMON_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/types.hh"

namespace cnsim
{

// Fixed-width fields are copied in host order, which is the files'
// little-endian order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "cnsim's file formats are little-endian");

/** Little-endian appender for every file format and checkpoint
 *  payload. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void tick(Tick v) { u64(v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    /** u32 length, then the bytes. */
    void str(std::string_view s);
    void raw(const void *p, std::size_t n)
    {
        out.append(static_cast<const char *>(p), n);
    }

    [[nodiscard]] const std::string &bytes() const { return out; }
    [[nodiscard]] std::string take() { return std::move(out); }

  private:
    std::string out;
};

/**
 * Bounds-checked little-endian reader over a byte range it does not
 * own. Every overrun is fatal, naming @p what, so a clipped file dies
 * with a clear message instead of decoding garbage. @p what names the
 * source in full, e.g. "CNCKPT01 checkpoint 'c.ckpt'".
 */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t size, std::string what);

    [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
    [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
    [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
    [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
    [[nodiscard]] Tick tick() { return u64(); }
    [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
    [[nodiscard]] std::string str();
    void raw(void *p, std::size_t n);

    /** Bytes not yet consumed. */
    [[nodiscard]] std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }

    /** Fatal unless the range was consumed exactly. */
    void expectExhausted() const;

    /** fatal() with "<what>: <message>": for a value that reads
     *  cleanly but does not fit the reader's caller. */
    [[noreturn]] void fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    template <typename T>
    T
    get()
    {
        T v;
        raw(&v, sizeof(v));
        return v;
    }

    const std::uint8_t *cur;
    const std::uint8_t *end;
    std::string what;
};

/** Longest LEB128 varint: 64 bits at 7 bits per byte. */
constexpr std::size_t max_varint_bytes = 10;

/**
 * Zigzag-map a two's-complement value carried in a uint64_t, so small
 * magnitudes of either sign encode as short varints. Differences wrap
 * modulo 2^64.
 */
constexpr std::uint64_t
zigzag(std::uint64_t v)
{
    return (v << 1) ^ (std::uint64_t{0} - (v >> 63));
}

constexpr std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (std::uint64_t{0} - (z & 1));
}

/** Store @p v as an unsigned LEB128 varint at @p p (room for
 *  max_varint_bytes); @return the byte past it. */
inline unsigned char *
putVarint(unsigned char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

/**
 * Decode one varint at @p p, which must not pass @p end, into @p v and
 * advance @p p past it.
 * @return nullptr on success, else why the bytes are not a varint.
 */
inline const char *
getVarint(const unsigned char *&p, const unsigned char *end,
          std::uint64_t &v)
{
    v = 0;
    for (std::size_t i = 0; i < max_varint_bytes; ++i) {
        if (p == end)
            return "the stream ends inside it";
        unsigned byte = *p++;
        if (i == max_varint_bytes - 1 && byte > 1)
            return byte & 0x80 ? "a varint is longer than 10 bytes"
                               : "a varint overflows 64 bits";
        v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
        if (!(byte & 0x80))
            break;
    }
    return nullptr;
}

/**
 * What a whole-file read or write reports: an empty error on success,
 * else the strerror() text of the step that failed. The caller words
 * the message and decides what a failure means.
 */
struct [[nodiscard]] FileStatus
{
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Read all of @p path into @p out. */
FileStatus readFile(const std::string &path, std::string &out);

/** Create or truncate @p path and write @p parts to it in order; the
 *  status covers the open, every write and the close. Writing the parts
 *  where they lie spares a caller a copy of the whole file. */
FileStatus writeFile(const std::string &path,
                     std::span<const std::string_view> parts);

/** writeFile() of one buffer. */
inline FileStatus
writeFile(const std::string &path, std::string_view bytes)
{
    return writeFile(path, std::span<const std::string_view>(&bytes, 1));
}

} // namespace cnsim

#endif // CNSIM_COMMON_BYTES_HH
