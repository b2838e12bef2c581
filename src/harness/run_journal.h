/**
 * @file
 * What the run journal (`--journal` / `--resume`) and the simulation
 * service's result store record: cell fingerprints and the lossless
 * JSON of each cell's outcome.
 *
 * Every completed cell of a RunPlan is recorded as one self-contained
 * JournalEntry keyed by a deterministic fingerprint of the cell
 * (config digest + workload + scheme label + seed). On resume,
 * journaled cells are skipped and their results replayed; because
 * every RunResult field is an integer or a string, the round trip is
 * lossless and the merged output is byte-identical to an uninterrupted
 * sweep. The file itself is a harness::RecordLog (record_log.h).
 */

#ifndef GRIT_HARNESS_RUN_JOURNAL_H_
#define GRIT_HARNESS_RUN_JOURNAL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "harness/simulator.h"
#include "stats/json_value.h"
#include "stats/json_writer.h"

namespace grit::harness {

struct RunCell;

/**
 * Header identity of a sweep journal, whose generator is the sweeping
 * binary. Version 2 added the "accesses_batched" run field; version-1
 * journals are refused on resume (re-running the sweep is cheaper than
 * replaying a record that silently zeroes a now-exported metric).
 */
inline constexpr const char *kJournalSchema = "grit-run-journal";
inline constexpr unsigned kJournalVersion = 2;

/**
 * Digest of every SystemConfig value a run's results depend on (policy,
 * GPU count, geometry, the swept model values, feature and reporting
 * flags, the chaos spec). Deliberately excludes
 * the resilience controls (wallDeadlineSec, eventBudget, cancelFlag)
 * and non-owning pointers: resuming with a different deadline must
 * still match the journaled fingerprints.
 */
std::uint64_t configDigest(const SystemConfig &config);

/**
 * Deterministic hex fingerprint of one RunPlan cell: row, label,
 * workload identity (the app's abbreviation), generation params, and
 * configDigest().
 */
std::string runFingerprint(const RunCell &cell);

/** One journaled cell outcome. */
struct JournalEntry
{
    std::string fingerprint;
    std::string row;
    std::string label;
    /** "ok" or "failed" (quarantined). */
    std::string status;
    /** Executions attempted (> 1 after a transient-failure retry). */
    unsigned attempts = 1;
    /**
     * Present for "ok" entries and for quarantined entries whose
     * partial counters were salvaged (result.partial is then true).
     */
    bool hasResult = false;
    RunResult result;
    /** The quarantining diagnostic ("failed" entries). */
    std::optional<sim::SimError> error;
};

/** Lossless RunResult serialization (exposed for tests). */
void writeRunResultJson(stats::JsonWriter &w, const RunResult &result);
/** Inverse of writeRunResultJson. @throws SimException (kJournal). */
RunResult runResultFromJson(const stats::JsonValue &v);

/** {"code","message","context"} object (shared with src/service). */
void writeErrorJson(stats::JsonWriter &w, const sim::SimError &error);
/** Inverse of writeErrorJson. @throws SimException (kJournal). */
sim::SimError errorFromJson(const stats::JsonValue &v);

/** Entry object serialization (shared with the service protocol). */
void writeJournalEntryJson(stats::JsonWriter &w, const JournalEntry &entry);
/** Inverse of writeJournalEntryJson. @throws SimException (kJournal). */
JournalEntry journalEntryFromJson(const stats::JsonValue &v);

/** Serialize @p entry as one journal line (no trailing newline). */
std::string journalLine(const JournalEntry &entry);
/** Parse one journal line. @throws SimException (kJournal). */
JournalEntry journalEntryFromLine(const std::string &line);

}  // namespace grit::harness

#endif  // GRIT_HARNESS_RUN_JOURNAL_H_
