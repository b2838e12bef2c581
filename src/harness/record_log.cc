#include "harness/record_log.h"

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "stats/json_value.h"
#include "stats/json_writer.h"

namespace grit::harness {

namespace {

[[noreturn]] void
logFail(const std::string &message, const std::string &context,
        sim::ErrorCode code = sim::ErrorCode::kJournal)
{
    throw sim::SimException(code, message, context);
}

std::string
headerLine(const RecordLogHeader &header)
{
    std::ostringstream os;
    stats::JsonWriter w(os);
    w.beginObject();
    w.key("schema").value(header.schema);
    w.key("version").value(header.version);
    if (!header.generator.empty())
        w.key("generator").value(header.generator);
    w.endObject();
    return os.str();
}

/** Refuse a header line that does not declare @p expected. */
void
checkHeader(const std::string &line, const RecordLogHeader &expected,
            const std::string &path)
{
    RecordLogHeader found;
    try {
        const stats::JsonValue header = stats::JsonValue::parse(line);
        found.schema = header.at("schema").asString();
        found.version = header.at("version").asUint64();
        if (const stats::JsonValue *g = header.find("generator"))
            found.generator = g->asString();
    } catch (const std::runtime_error &e) {
        logFail(std::string("record-log header failed integrity "
                            "validation: ") +
                    e.what(),
                path, sim::ErrorCode::kStoreCorrupt);
    }
    if (headerLine(found) != headerLine(expected))
        logFail("foreign record log: header " + headerLine(found) +
                    ", expected " + headerLine(expected),
                path);
}

/** One write(2) of all of @p bytes, then fsync(2); errno says why not. */
bool
writeDurably(int fd, std::string_view bytes)
{
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n != static_cast<ssize_t>(bytes.size())) {
        if (n >= 0)
            errno = EIO;  // short write
        return false;
    }
    return ::fsync(fd) == 0;
}

/** fsync the directory holding @p path so a rename is durable. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;  // best-effort: some filesystems refuse dir fsync
    ::fsync(fd);
    ::close(fd);
}

}  // namespace

RecordLog::~RecordLog()
{
    close();
}

void
RecordLog::open(const std::string &path, const RecordLogHeader &header)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0)
        ::close(fd_);
    path_ = path;
    header_ = header;
    scrub_ = {};
    duplicates_ = 0;
    entries_.clear();
    index_.clear();

    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        logFail(std::string("cannot open record log: ") +
                    std::strerror(errno),
                path);
    try {
        scrubLocked();
    } catch (...) {
        ::close(fd_);
        fd_ = -1;
        throw;
    }
}

void
RecordLog::scrubLocked()
{
    RecordReader reader(path_);
    if (!reader.isOpen())
        logFail("cannot scan record log", path_);
    std::string line;
    if (!reader.next(line)) {
        // Empty, or torn before its header line ended: start it over.
        if (reader.tornTail())
            ++scrub_.truncated;
        if (::ftruncate(fd_, 0) != 0 ||
            !writeDurably(fd_, headerLine(header_) + "\n"))
            logFail(std::string("cannot write record-log header: ") +
                        std::strerror(errno),
                    path_);
        return;
    }
    checkHeader(line, header_, path_);

    QuarantineSidecar quarantine(path_);
    while (reader.next(line)) {
        if (line.empty())
            continue;
        ++scrub_.scanned;
        const UnframedRecord record = unframeRecord(line);
        if (record.kind == RecordKind::kFramed) {
            try {
                JournalEntry entry =
                    journalEntryFromLine(std::string(record.payload));
                ++scrub_.valid;
                if (index_.count(entry.fingerprint) != 0) {
                    ++duplicates_;
                    continue;
                }
                entries_.push_back(std::move(entry));
                index_.emplace(entries_.back().fingerprint,
                               &entries_.back());
                continue;
            } catch (const sim::SimException &) {
                // A framed line that is no entry: quarantined below.
            }
        }
        ++scrub_.quarantined;
        quarantine.add(line);
    }

    // Cut an unterminated torn tail so the next append starts on a
    // clean line boundary instead of concatenating onto torn bytes.
    if (reader.tornTail()) {
        ++scrub_.truncated;
        if (::ftruncate(fd_, static_cast<off_t>(
                                 reader.terminatedBytes())) != 0)
            logFail(std::string("cannot truncate torn tail: ") +
                        std::strerror(errno),
                    path_);
    }
}

bool
RecordLog::isOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fd_ >= 0;
}

std::size_t
RecordLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ScrubStats
RecordLog::scrubStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return scrub_;
}

const JournalEntry *
RecordLog::find(const std::string &fingerprint) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(fingerprint);
    return it == index_.end() ? nullptr : it->second;
}

void
RecordLog::append(const JournalEntry &entry)
{
    const std::string line = frameRecord(journalLine(entry)) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        logFail("append to a record log that is not open", path_);
    if (index_.count(entry.fingerprint) != 0)
        return;
    if (!writeDurably(fd_, line))
        logFail(std::string("record-log append failed: ") +
                    std::strerror(errno),
                path_);
    entries_.push_back(entry);
    index_.emplace(entries_.back().fingerprint, &entries_.back());
}

RecordLog::CompactionStats
RecordLog::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        logFail("compact a record log that is not open", path_);

    std::string image = headerLine(header_) + "\n";
    for (const JournalEntry &entry : entries_)
        image += frameRecord(journalLine(entry)) + "\n";
    const std::string tempPath = path_ + ".compact";
    const int tmp =
        ::open(tempPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tmp < 0)
        logFail(std::string("cannot create compaction temp: ") +
                    std::strerror(errno),
                tempPath);
    const bool written = writeDurably(tmp, image);
    const int writeErr = errno;  // before close(), which may clobber it
    ::close(tmp);
    if (!written) {
        ::unlink(tempPath.c_str());
        logFail(std::string("compaction write failed: ") +
                    std::strerror(writeErr),
                tempPath);
    }
    // Atomic cutover: a restart sees either the old complete file or
    // the new complete file, never a half-rewritten one.
    if (::rename(tempPath.c_str(), path_.c_str()) != 0) {
        const int err = errno;
        ::unlink(tempPath.c_str());
        logFail(std::string("compaction rename failed: ") +
                    std::strerror(err),
                path_);
    }
    fsyncParentDir(path_);

    ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        logFail(std::string("cannot reopen compacted record log: ") +
                    std::strerror(errno),
                path_);

    CompactionStats stats;
    stats.recordsIn = entries_.size() + duplicates_;
    stats.kept = entries_.size();
    stats.duplicatesDropped = duplicates_;
    duplicates_ = 0;
    return stats;
}

void
RecordLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

}  // namespace grit::harness
