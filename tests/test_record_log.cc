/** @file Record-log suite: the one implementation behind the sweep
 *  journal and the service's result store, each behaviour checked
 *  once — reopen, torn tail, mid-file quarantine, seeded bitflips,
 *  concurrent and two-handle appends, first-wins duplicates,
 *  compaction and failed compaction — plus the header rules. Cases are
 *  named for the file identity they open: RunJournalFile cases write a
 *  journal header (with a generator), ResultStore cases the store's. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "harness/record_frame.h"
#include "harness/record_log.h"
#include "harness/run_journal.h"
#include "service/server.h"
#include "simcore/sim_error.h"
#include "temp_path.h"

namespace grit::harness {
namespace {

const RecordLogHeader kJournal{kJournalSchema, kJournalVersion,
                               "test_record_log"};
const RecordLogHeader kStore{service::Server::kStoreSchema,
                             service::Server::kStoreVersion, {}};

using test::TempPath;

/** A complete "ok" entry, distinct per @p fingerprint and @p cycles. */
JournalEntry
okEntry(const std::string &fingerprint, std::uint64_t cycles)
{
    JournalEntry entry;
    entry.fingerprint = fingerprint;
    entry.row = "GEMM";
    entry.label = "grit";
    entry.status = "ok";
    entry.hasResult = true;
    entry.result.cycles = cycles;
    entry.result.accesses = cycles / 2;
    entry.result.accessesBatched = 3;
    return entry;
}

/** 16 hex digits from a prefix and a counter. */
std::string
fingerprintOf(const std::string &prefix, unsigned i)
{
    std::ostringstream fp;
    fp << prefix << std::hex << std::setw(8) << std::setfill('0') << i;
    return fp.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spill(const std::string &path, const std::string &bytes,
      std::ios::openmode mode = std::ios::trunc)
{
    std::ofstream out(path, std::ios::binary | mode);
    out << bytes;
}

std::vector<std::string>
lines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

std::string
framed(const JournalEntry &entry)
{
    return frameRecord(journalLine(entry)) + "\n";
}

/** open() must throw a SimException carrying @p code. */
void
expectOpenFails(const std::string &path, const RecordLogHeader &header,
                sim::ErrorCode code)
{
    RecordLog log;
    try {
        log.open(path, header);
        ADD_FAILURE() << "opened " << slurp(path);
    } catch (const sim::SimException &e) {
        EXPECT_EQ(e.code(), code) << e.what();
    }
    EXPECT_FALSE(log.isOpen());
}

// ------------------------------------------------------- journal identity

TEST(RunJournalFile, AppendReopenResumeAndTornTail)
{
    TempPath path("record_log_torn.jsonl");

    // Torn before the header line ended: the file starts over.
    spill(path.str(), "{\"schema\":\"grit-run-jour");
    {
        RecordLog log;
        log.open(path.str(), kJournal);
        EXPECT_EQ(log.size(), 0u);
        EXPECT_EQ(log.scrubStats().truncated, 1u);
        EXPECT_EQ(slurp(path.str()),
                  "{\"schema\":\"grit-run-journal\",\"version\":2,"
                  "\"generator\":\"test_record_log\"}\n");
        log.append(okEntry("aaaa000011112222", 7));
    }

    // A kill -9 mid-append leaves an unterminated fragment: reopening
    // cuts it before the next append, which then starts on a clean
    // line boundary.
    const std::string intact = slurp(path.str());
    spill(path.str(), "GF1 00000040 0000", std::ios::app);
    {
        RecordLog log;
        log.open(path.str(), kJournal);
        EXPECT_EQ(log.size(), 1u);
        EXPECT_EQ(log.scrubStats().truncated, 1u);
        EXPECT_EQ(log.scrubStats().quarantined, 0u);
        EXPECT_EQ(slurp(path.str()), intact);
        log.append(okEntry("bbbb000011112222", 8));
    }
    RecordLog reloaded;
    reloaded.open(path.str(), kJournal);
    EXPECT_EQ(reloaded.size(), 2u);
    const ScrubStats scrub = reloaded.scrubStats();
    EXPECT_EQ(scrub.valid, 2u);
    EXPECT_EQ(scrub.quarantined, 0u);
    EXPECT_EQ(scrub.truncated, 0u);
    ASSERT_NE(reloaded.find("bbbb000011112222"), nullptr);
    EXPECT_EQ(reloaded.find("bbbb000011112222")->result.cycles, 8u);
}

TEST(RunJournalFile, ConcurrentAppendsFromManyThreads)
{
    // Parallel sweep workers journal through one shared log; every
    // line must land intact (no interleaved bytes) and every record
    // must survive a reopen.
    TempPath path("record_log_threads.jsonl");
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 50;
    {
        RecordLog log;
        log.open(path.str(), kJournal);
        std::vector<std::thread> writers;
        for (unsigned t = 0; t < kThreads; ++t)
            writers.emplace_back([&log, t] {
                for (unsigned i = 0; i < kPerThread; ++i)
                    log.append(okEntry(
                        fingerprintOf(fingerprintOf("", t), i),
                        t * 1000ull + i));
            });
        for (std::thread &w : writers)
            w.join();
        EXPECT_EQ(log.size(), kThreads * kPerThread);
    }

    RecordLog reloaded;
    reloaded.open(path.str(), kJournal);
    ASSERT_EQ(reloaded.size(), kThreads * kPerThread);
    EXPECT_EQ(reloaded.scrubStats().quarantined, 0u);
    for (unsigned t = 0; t < kThreads; ++t)
        for (unsigned i = 0; i < kPerThread; ++i) {
            const std::string fp = fingerprintOf(fingerprintOf("", t), i);
            const JournalEntry *found = reloaded.find(fp);
            ASSERT_NE(found, nullptr) << fp;
            EXPECT_EQ(found->result.cycles, t * 1000ull + i);
        }
}

TEST(RunJournalFile, TwoWritersOnePathInterleaveAtLineGranularity)
{
    // Two handles on the same file — the multi-process analogue of a
    // resumed sweep racing a straggler. O_APPEND single-write appends
    // interleave whole lines, and a torn tail left by a third
    // (crashed) writer is still tolerated.
    TempPath path("record_log_two_writers.jsonl");
    RecordLog first;
    first.open(path.str(), kJournal);
    RecordLog second;
    second.open(path.str(), kJournal);

    constexpr unsigned kPerWriter = 100;
    auto writeVia = [](RecordLog &log, const std::string &prefix) {
        for (unsigned i = 0; i < kPerWriter; ++i)
            log.append(okEntry(fingerprintOf(prefix, i), i + 1));
    };
    std::thread a([&] { writeVia(first, "aaaaaaaa"); });
    std::thread b([&] { writeVia(second, "bbbbbbbb"); });
    a.join();
    b.join();
    spill(path.str(), "GF1 0000", std::ios::app);

    RecordLog reloaded;
    reloaded.open(path.str(), kJournal);
    EXPECT_EQ(reloaded.size(), 2 * kPerWriter);
    EXPECT_EQ(reloaded.scrubStats().quarantined, 0u);
    EXPECT_EQ(reloaded.scrubStats().truncated, 1u);
    for (unsigned i = 0; i < kPerWriter; ++i) {
        EXPECT_NE(reloaded.find(fingerprintOf("aaaaaaaa", i)), nullptr);
        EXPECT_NE(reloaded.find(fingerprintOf("bbbbbbbb", i)), nullptr);
    }
}

TEST(RunJournalFile, ResumesMixedLegacyAndFramedFiles)
{
    // A bare JSON record line (the pre-framing format) has no CRC to
    // vouch for it: it is quarantined like any other damage, and the
    // framed record after it still loads.
    TempPath path("record_log_legacy.jsonl");
    const JournalEntry legacy = okEntry("1111111111111111", 11);
    const JournalEntry current = okEntry("2222222222222222", 22);
    spill(path.str(), "{\"schema\":\"grit-run-journal\",\"version\":2,"
                      "\"generator\":\"test_record_log\"}\n" +
                          journalLine(legacy) + "\n" + framed(current));
    {
        RecordLog log;
        log.open(path.str(), kJournal);
        EXPECT_EQ(log.size(), 1u);
        EXPECT_EQ(log.scrubStats().scanned, 2u);
        EXPECT_EQ(log.scrubStats().quarantined, 1u);
        EXPECT_EQ(log.find(legacy.fingerprint), nullptr);
        ASSERT_NE(log.find(current.fingerprint), nullptr);
        EXPECT_EQ(log.find(current.fingerprint)->result.cycles, 22u);
        EXPECT_EQ(slurp(path.str() + ".quarantine"),
                  journalLine(legacy) + "\n");
        // The quarantined cell re-runs and lands framed.
        log.append(legacy);
    }
    RecordLog reloaded;
    reloaded.open(path.str(), kJournal);
    EXPECT_EQ(reloaded.size(), 2u);
    ASSERT_NE(reloaded.find(legacy.fingerprint), nullptr);
    EXPECT_EQ(reloaded.find(legacy.fingerprint)->result.cycles, 11u);
}

// --------------------------------------------------------- store identity

TEST(ResultStore, RoundTripsAndSurvivesReopen)
{
    TempPath path("record_log_roundtrip.jsonl");
    const JournalEntry a = okEntry("aaaa000011112222", 100);
    const JournalEntry b = okEntry("bbbb000011112222", 200);
    {
        RecordLog log;
        log.open(path.str(), kStore);
        EXPECT_TRUE(log.isOpen());
        EXPECT_EQ(log.size(), 0u);
        EXPECT_EQ(log.find(a.fingerprint), nullptr);
        log.append(a);
        log.append(b);
        log.append(okEntry(a.fingerprint, 999));  // first-wins: dropped
        EXPECT_EQ(log.size(), 2u);
        log.close();
        EXPECT_FALSE(log.isOpen());
        EXPECT_EQ(log.size(), 2u);  // the index outlives close()
    }
    EXPECT_EQ(slurp(path.str()),
              "{\"schema\":\"grit-result-store\",\"version\":1}\n" +
                  framed(a) + framed(b));

    // Opening never truncates: the records come back byte-identical.
    RecordLog log;
    log.open(path.str(), kStore);
    EXPECT_EQ(log.size(), 2u);
    ASSERT_NE(log.find(a.fingerprint), nullptr);
    ASSERT_NE(log.find(b.fingerprint), nullptr);
    EXPECT_EQ(journalLine(*log.find(a.fingerprint)), journalLine(a));
    EXPECT_EQ(journalLine(*log.find(b.fingerprint)), journalLine(b));
}

TEST(ResultStore, RefusesForeignFile)
{
    // A valid header naming another schema, version or generator is a
    // foreign file: refused with `journal`, and left untouched.
    TempPath path("record_log_foreign.jsonl");
    RecordLogHeader otherGenerator = kJournal;
    otherGenerator.generator = "other_bench";
    RecordLogHeader oldVersion = kJournal;
    oldVersion.version = 1;
    RecordLogHeader storeWithGenerator = kStore;
    storeWithGenerator.generator = "test_record_log";
    const std::vector<std::pair<RecordLogHeader, RecordLogHeader>>
        cases = {{kJournal, kStore},
                 {kStore, kJournal},
                 {otherGenerator, kJournal},
                 {oldVersion, kJournal},
                 {storeWithGenerator, kStore}};
    for (const auto &[written, expected] : cases) {
        std::remove(path.str().c_str());
        {
            RecordLog log;
            log.open(path.str(), written);
            log.append(okEntry("aaaa000011112222", 1));
        }
        const std::string before = slurp(path.str());
        expectOpenFails(path.str(), expected, sim::ErrorCode::kJournal);
        EXPECT_EQ(slurp(path.str()), before);
    }
}

TEST(ResultStore, CorruptHeaderFailsWithStoreCorrupt)
{
    // A header that does not parse means the file's identity cannot be
    // trusted: both identities refuse it with `store-corrupt`.
    TempPath path("record_log_bad_header.jsonl");
    for (const std::string header :
         {"not json at all", "", "{\"schema\":\"grit-result-store\"}",
          "{\"schema\":\"grit-run-journal\",\"version\":-2}"}) {
        for (const RecordLogHeader &identity : {kJournal, kStore}) {
            spill(path.str(),
                  header + "\n" + framed(okEntry("aaaa000011112222", 1)));
            expectOpenFails(path.str(), identity,
                            sim::ErrorCode::kStoreCorrupt);
        }
    }
}

TEST(ResultStore, ScrubQuarantinesCorruptRecordAndKeepsTheRest)
{
    TempPath path("record_log_scrub.jsonl");
    const JournalEntry a = okEntry("aaaa000011112222", 100);
    const JournalEntry b = okEntry("bbbb000011112222", 200);
    const JournalEntry c = okEntry("cccc000011112222", 300);
    {
        RecordLog log;
        log.open(path.str(), kStore);
        log.append(a);
        log.append(b);
        log.append(c);
    }
    // Flip one payload byte of the SECOND record (file line 3): the
    // CRC must catch it, and — unlike truncate-at-first-bad-byte —
    // record c behind it must survive.
    std::vector<std::string> image = lines(path.str());
    ASSERT_EQ(image.size(), 4u);
    image[2][30] = static_cast<char>(image[2][30] ^ 0x80);
    const std::string damaged = image[2];
    std::string bytes;
    for (const std::string &line : image)
        bytes += line + "\n";
    spill(path.str(), bytes);

    RecordLog log;
    log.open(path.str(), kStore);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_NE(log.find(a.fingerprint), nullptr);
    EXPECT_EQ(log.find(b.fingerprint), nullptr);
    EXPECT_NE(log.find(c.fingerprint), nullptr);
    const ScrubStats scrub = log.scrubStats();
    EXPECT_EQ(scrub.scanned, 3u);
    EXPECT_EQ(scrub.valid, 2u);
    EXPECT_EQ(scrub.quarantined, 1u);
    EXPECT_EQ(scrub.truncated, 0u);

    // The damaged raw line is preserved in the sidecar, not destroyed,
    // and the quarantined fingerprint can be recorded again.
    EXPECT_EQ(slurp(path.str() + ".quarantine"), damaged + "\n");
    log.append(b);
    EXPECT_EQ(log.size(), 3u);
}

TEST(ResultStore, SeededBitflipsQuarantineExactlyTheDamage)
{
    TempPath path("record_log_bitflip.jsonl");
    {
        RecordLog log;
        log.open(path.str(), kStore);
        for (unsigned i = 0; i < 8; ++i)
            log.append(okEntry(fingerprintOf("f0000000", i), 100 + i));
    }
    const CorruptionReport report =
        injectBitflips(path.str(), 20260809, 6);
    ASSERT_FALSE(report.damagedLines.empty());

    RecordLog log;
    log.open(path.str(), kStore);
    const ScrubStats scrub = log.scrubStats();
    EXPECT_EQ(scrub.scanned, 8u);
    EXPECT_EQ(scrub.quarantined, report.damagedLines.size());
    EXPECT_EQ(scrub.valid, 8u - report.damagedLines.size());
    EXPECT_EQ(log.size(), 8u - report.damagedLines.size());
}

TEST(ResultStore, CompactShedsDuplicatesAndQuarantinedRecords)
{
    // A duplicate on disk (two daemons once raced on one store) is
    // first-wins at load already, so compaction changes no answer.
    TempPath path("record_log_compact.jsonl");
    const JournalEntry a = okEntry("aaaa000011112222", 100);
    const JournalEntry aDup = okEntry("aaaa000011112222", 999);
    const JournalEntry b = okEntry("bbbb000011112222", 200);
    spill(path.str(), "{\"schema\":\"grit-result-store\",\"version\":1}\n" +
                          framed(a) + "GF1 garbage that will not verify\n" +
                          framed(aDup) + framed(b));
    RecordLog log;
    log.open(path.str(), kStore);
    EXPECT_EQ(log.scrubStats().valid, 3u);
    EXPECT_EQ(log.scrubStats().quarantined, 1u);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.find(a.fingerprint)->result.cycles, 100u);

    const RecordLog::CompactionStats stats = log.compact();
    EXPECT_EQ(stats.recordsIn, 3u);
    EXPECT_EQ(stats.kept, 2u);
    EXPECT_EQ(stats.duplicatesDropped, 1u);
    EXPECT_EQ(log.find(a.fingerprint)->result.cycles, 100u);
    EXPECT_EQ(slurp(path.str()),
              "{\"schema\":\"grit-result-store\",\"version\":1}\n" +
                  framed(a) + framed(b));

    // The log stays appendable after the descriptor swap, and a
    // reopened compacted file scrubs perfectly clean.
    log.append(okEntry("cccc000011112222", 300));
    RecordLog reopened;
    reopened.open(path.str(), kStore);
    EXPECT_EQ(reopened.size(), 3u);
    const ScrubStats scrub = reopened.scrubStats();
    EXPECT_EQ(scrub.scanned, 3u);
    EXPECT_EQ(scrub.valid, 3u);
    EXPECT_EQ(scrub.quarantined, 0u);
    EXPECT_EQ(scrub.truncated, 0u);
}

TEST(ResultStore, FailedCompactionLeavesTheLiveStoreIntact)
{
    // `compact` is reachable from the wire in a long-lived daemon, so
    // a failed rewrite (ENOSPC, EPERM, ...) must throw without
    // touching the in-memory state: find/append/size and a retried
    // compact all keep working afterwards.
    TempPath path("record_log_compact_fail.jsonl");
    const JournalEntry a = okEntry("aaaa000011112222", 100);
    const JournalEntry aDup = okEntry("aaaa000011112222", 999);
    const JournalEntry b = okEntry("bbbb000011112222", 200);
    spill(path.str(), "{\"schema\":\"grit-result-store\",\"version\":1}\n" +
                          framed(a) + framed(aDup) + framed(b));
    RecordLog log;
    log.open(path.str(), kStore);
    EXPECT_EQ(log.size(), 2u);

    // Squat on the temp path with a directory: the rewrite cannot even
    // create its temp file and must fail before any cutover.
    const std::string tempPath = path.str() + ".compact";
    ASSERT_EQ(::mkdir(tempPath.c_str(), 0755), 0);
    EXPECT_THROW(log.compact(), sim::SimException);
    ASSERT_EQ(::rmdir(tempPath.c_str()), 0);

    EXPECT_EQ(log.size(), 2u);
    ASSERT_NE(log.find(a.fingerprint), nullptr);
    EXPECT_EQ(log.find(a.fingerprint)->result.cycles, 100u);
    log.append(okEntry("cccc000011112222", 300));
    const RecordLog::CompactionStats stats = log.compact();
    EXPECT_EQ(stats.recordsIn, 4u);
    EXPECT_EQ(stats.kept, 3u);
    EXPECT_EQ(stats.duplicatesDropped, 1u);

    RecordLog reopened;
    reopened.open(path.str(), kStore);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(reopened.scrubStats().quarantined, 0u);
    EXPECT_EQ(reopened.find(a.fingerprint)->result.cycles, 100u);
}

}  // namespace
}  // namespace grit::harness
