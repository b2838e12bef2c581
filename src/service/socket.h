/**
 * @file
 * Thin Unix-domain-socket helpers for the simulation service.
 *
 * The service speaks newline-delimited JSON over a local stream
 * socket (docs/SERVICE.md); these helpers wrap the POSIX calls with
 * structured errors so daemon and client code stays readable. All
 * functions are blocking except acceptWithTimeout, which the accept
 * loop uses to poll its shutdown flag.
 */

#ifndef GRIT_SERVICE_SOCKET_H_
#define GRIT_SERVICE_SOCKET_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace grit::service {

/**
 * Bind and listen on a Unix stream socket at @p path. A stale socket
 * file left by a killed daemon is unlinked first (connecting to it
 * fails, so it cannot belong to a live server we would shadow).
 * @throws sim::SimException (kBadArgument) when @p path exceeds the
 *         sun_path limit, (kInternal) on bind/listen failure.
 */
int listenUnix(const std::string &path);

/**
 * Accept one connection, waiting at most @p timeout_ms.
 * @return the connected fd, or -1 on timeout / transient error.
 */
int acceptWithTimeout(int listen_fd, int timeout_ms);

/** Connect to the Unix socket at @p path; -1 on failure (sets errno). */
int connectUnix(const std::string &path);

/** Write all of @p data, retrying short writes; false on error. */
bool writeAll(int fd, std::string_view data);

/** writeAll of @p line plus the terminating newline. */
bool writeLine(int fd, std::string_view line);

/**
 * Buffered, bounded line reader: the one way both ends of a connection
 * read lines.
 *
 * It reads in chunks (a connection may pipeline many requests) and
 * enforces a per-line byte ceiling: a line longer than the limit is
 * *discarded up to its newline* and reported as kTooLong, so the server
 * can answer a structured `bad-argument` and keep the connection
 * usable — memory stays bounded no matter what a client sends.
 */
class LineReader
{
  public:
    enum class Status {
        kLine,     //!< a complete line is in `out`
        kEof,      //!< peer closed (or hard error) before a newline
        kTooLong,  //!< line exceeded the limit; discarded to its '\n'
    };

    explicit LineReader(int fd) : fd_(fd) {}

    /**
     * Read the next '\n'-terminated line (newline stripped) into
     * @p out, holding at most @p maxBytes of it in memory.
     */
    Status next(std::string &out, std::size_t maxBytes);

  private:
    bool fill();  //!< read() one more chunk; false on EOF/error

    int fd_;
    std::string buffer_;
    std::size_t pos_ = 0;
};

}  // namespace grit::service

#endif  // GRIT_SERVICE_SOCKET_H_
