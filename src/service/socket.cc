#include "service/socket.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "simcore/sim_error.h"

namespace grit::service {

namespace {

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw sim::SimException(
            sim::ErrorCode::kBadArgument,
            "socket path exceeds the " +
                std::to_string(sizeof(addr.sun_path) - 1) +
                "-byte sun_path limit",
            path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

}  // namespace

int
listenUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw sim::SimException(sim::ErrorCode::kInternal,
                                std::string("socket: ") +
                                    std::strerror(errno),
                                path);
    ::unlink(path.c_str());  // stale socket from a killed daemon
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, SOMAXCONN) != 0) {
        const int err = errno;
        ::close(fd);
        throw sim::SimException(sim::ErrorCode::kInternal,
                                std::string("bind/listen: ") +
                                    std::strerror(err),
                                path);
    }
    return fd;
}

int
acceptWithTimeout(int listen_fd, int timeout_ms)
{
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0)
        return -1;
    return ::accept(listen_fd, nullptr, nullptr);
}

int
connectUnix(const std::string &path)
{
    const sockaddr_un addr = unixAddress(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        return -1;
    }
    return fd;
}

bool
LineReader::fill()
{
    char chunk[4096];
    while (true) {
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n > 0) {
            // Compact consumed bytes before growing: the buffer stays
            // bounded by one line (plus a chunk), not by connection
            // lifetime.
            if (pos_ > 0) {
                buffer_.erase(0, pos_);
                pos_ = 0;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
            return true;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false;  // EOF or hard error
    }
}

LineReader::Status
LineReader::next(std::string &out, std::size_t maxBytes)
{
    out.clear();
    bool overflow = false;
    while (true) {
        const std::size_t nl = buffer_.find('\n', pos_);
        if (nl != std::string::npos) {
            if (!overflow && nl - pos_ <= maxBytes)
                out.assign(buffer_, pos_, nl - pos_);
            const bool tooLong = overflow || nl - pos_ > maxBytes;
            pos_ = nl + 1;
            return tooLong ? Status::kTooLong : Status::kLine;
        }
        if (buffer_.size() - pos_ > maxBytes) {
            // Over the ceiling with no newline yet: switch to discard
            // mode — drop what we have and keep draining until the
            // line ends, so the connection can resync on the next one.
            overflow = true;
            buffer_.clear();
            pos_ = 0;
        }
        if (!fill())
            return Status::kEof;
    }
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        // MSG_NOSIGNAL: a peer that hung up mid-response must surface
        // as EPIPE (an ordinary connection close), not as a SIGPIPE
        // that would kill the whole daemon.
        const ssize_t n =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

bool
writeLine(int fd, std::string_view line)
{
    std::string framed(line);
    framed.push_back('\n');
    return writeAll(fd, framed);
}

}  // namespace grit::service
