/**
 * @file
 * The append-only record file behind resumable sweeps (the run
 * journal, `--journal`) and the simulation service's result store
 * (`grit_serve --store`): the only code that opens, scrubs, appends
 * to and compacts such a file.
 *
 * File layout: a plain-JSON header line naming the file's identity,
 *   {"schema":"<name>","version":<n>,"generator":"<binary>"}
 * (the generator member only when the identity has one), followed by
 * one integrity-framed JournalEntry per line (harness/record_frame.h:
 * length prefix + CRC32C), keyed by its runFingerprint().
 *
 * Rules:
 *  - append is one write(2) of the whole framed line on an O_APPEND
 *    descriptor followed by fsync(2), so concurrent appenders (threads,
 *    or two handles on one path) interleave whole records, and a
 *    kill -9 loses at most the record being written;
 *  - open never truncates: it creates a missing file, scrubs an
 *    existing one and appends after it. A caller that wants a fresh
 *    file removes the old one first;
 *  - the scrub skips any record that fails its frame, CRC or JSON and
 *    keeps its raw line in the `<path>.quarantine` sidecar, while every
 *    intact record around it loads. Only an unterminated final line
 *    (a crash mid-append) is truncated away;
 *  - duplicate fingerprints are first-wins at load, append and
 *    compaction, so what find() returns never changes across a
 *    compaction;
 *  - a damaged header line is refused with `store-corrupt` (a file
 *    whose identity cannot be trusted is not guessed at); a valid one
 *    naming another schema, version or generator with `journal`.
 */

#ifndef GRIT_HARNESS_RECORD_LOG_H_
#define GRIT_HARNESS_RECORD_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>

#include "harness/record_frame.h"
#include "harness/run_journal.h"

namespace grit::harness {

/** The identity a record file's header line declares. */
struct RecordLogHeader
{
    std::string schema;
    std::uint64_t version = 0;
    /** The owning binary; left out of the header line when empty. */
    std::string generator;
};

/** One append-only record file. Thread-safe. */
class RecordLog
{
  public:
    /** What compact() did (sizes are records, not bytes). */
    struct CompactionStats
    {
        std::uint64_t recordsIn = 0;  //!< valid records before
        std::uint64_t kept = 0;       //!< unique records written back
        std::uint64_t duplicatesDropped = 0;
    };

    RecordLog() = default;
    ~RecordLog();
    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /**
     * Open @p path for appending, creating it with @p header when it is
     * missing or empty, and scrub what it already holds.
     * @throws sim::SimException — kStoreCorrupt when the header line is
     *         damaged; kJournal when it names another schema, version
     *         or generator, or on I/O failure.
     */
    void open(const std::string &path, const RecordLogHeader &header);

    bool isOpen() const;

    /** Unique fingerprints held; still readable after close(). */
    std::size_t size() const;

    /** Scrub tally of the most recent open(). */
    ScrubStats scrubStats() const;

    /**
     * The first record for @p fingerprint; nullptr when absent. The
     * pointer stays valid until the next open().
     */
    const JournalEntry *find(const std::string &fingerprint) const;

    /**
     * Append @p entry (one framed write + fsync) and index it, unless
     * its fingerprint is already held (first-wins).
     * @throws sim::SimException (kJournal) on I/O failure or when the
     *         log is not open.
     */
    void append(const JournalEntry &entry);

    /**
     * Rewrite the file as its header plus the records find() serves,
     * in append order, via write-temp + fsync + atomic rename (+ fsync
     * of the directory), shedding duplicates and quarantined lines.
     * Nothing in memory changes, so a failed rewrite leaves the log
     * fully usable. scrubStats() still describes the last open().
     * @throws sim::SimException (kJournal) on I/O failure.
     */
    CompactionStats compact();

    /** Close the file (open() may be called again). */
    void close();

  private:
    void scrubLocked();

    mutable std::mutex mutex_;
    int fd_ = -1;
    std::string path_;
    RecordLogHeader header_;
    ScrubStats scrub_;
    /** Valid records on disk that repeat a held fingerprint. */
    std::uint64_t duplicates_ = 0;
    /** Unique records in append order; a deque never moves them. */
    std::deque<JournalEntry> entries_;
    std::unordered_map<std::string, const JournalEntry *> index_;
};

}  // namespace grit::harness

#endif  // GRIT_HARNESS_RECORD_LOG_H_
