#include "common/bytes.hh"

#include <cerrno>
#include <cstdarg>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace cnsim
{

void
ByteWriter::str(std::string_view s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
}

ByteReader::ByteReader(const void *data, std::size_t size, std::string w)
    : cur(static_cast<const std::uint8_t *>(data)), end(cur + size),
      what(std::move(w))
{
}

void
ByteReader::raw(void *p, std::size_t n)
{
    if (remaining() < n)
        fatal("truncated %s: need %zu bytes, %zu remain", what.c_str(), n,
              remaining());
    std::memcpy(p, cur, n);
    cur += n;
}

std::string
ByteReader::str()
{
    std::uint32_t n = u32();
    if (remaining() < n)
        fatal("truncated %s: string of %u bytes overruns the payload",
              what.c_str(), n);
    std::string s(reinterpret_cast<const char *>(cur), n);
    cur += n;
    return s;
}

void
ByteReader::expectExhausted() const
{
    if (remaining() != 0)
        fatal("corrupt %s: %zu trailing bytes", what.c_str(), remaining());
}

void
ByteReader::fail(const char *fmt, ...) const
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrfmt(fmt, args);
    va_end(args);
    fatal("%s: %s", what.c_str(), msg.c_str());
}

FileStatus
readFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return {std::strerror(errno)};
    out.clear();
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0)
        out.reserve(static_cast<std::size_t>(st.st_size));
    char buf[65536];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            FileStatus s{std::strerror(errno)};
            ::close(fd);
            return s;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return {};
}

FileStatus
writeFile(const std::string &path, std::span<const std::string_view> parts)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0)
        return {std::strerror(errno)};
    for (std::string_view part : parts) {
        while (!part.empty()) {
            ssize_t n = ::write(fd, part.data(), part.size());
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0) {
                FileStatus s{std::strerror(errno)};
                ::close(fd);
                return s;
            }
            part.remove_prefix(static_cast<std::size_t>(n));
        }
    }
    if (::close(fd) != 0)
        return {std::strerror(errno)};
    return {};
}

} // namespace cnsim
