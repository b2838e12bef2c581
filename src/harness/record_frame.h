/**
 * @file
 * Integrity-checked record framing of the append-only record files
 * (harness/record_log.h: the run journal and the service result store).
 *
 * Each appended record is wrapped in a one-line frame carrying a
 * length prefix and a CRC32C of the payload:
 *
 *   GF1 <len:8 hex> <crc:8 hex> <payload>\n
 *
 * The frame is pure ASCII, so framed files remain greppable JSONL.
 * unframeRecord() classifies every line as framed or corrupt: a flipped
 * bit anywhere in a framed record fails the CRC (or breaks the magic)
 * instead of being parsed as a valid outcome, which is what lets the
 * loader *scrub*: skip-and-quarantine the damaged record and keep
 * everything after it, rather than truncating the file at the first
 * bad byte.
 *
 * Also here: the scan/quarantine helpers the loader uses
 * (RecordReader, QuarantineSidecar, ScrubStats) and the seeded
 * corruption injector behind the `store-bitflip` chaos clause.
 */

#ifndef GRIT_HARNESS_RECORD_FRAME_H_
#define GRIT_HARNESS_RECORD_FRAME_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace grit::harness {

/**
 * CRC32C (Castagnoli) of @p data, software slice-by-8. @p seed chains
 * incremental computation: crc32c(ab) == crc32c(b, crc32c(a)).
 */
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0);

/** Frame magic; a line starting with anything else is not a frame. */
inline constexpr std::string_view kFrameMagic = "GF1 ";

/** Wrap @p payload in one frame line (no trailing newline). */
std::string frameRecord(std::string_view payload);

/** What unframeRecord() decided a line is. */
enum class RecordKind {
    kFramed,  //!< valid frame; payload verified by CRC
    kCorrupt, //!< anything else — quarantine it
};

/** One classified line. payload views into the input line. */
struct UnframedRecord
{
    RecordKind kind = RecordKind::kCorrupt;
    /** The record payload (kFramed only). */
    std::string_view payload;
    /** Why the line was rejected (kCorrupt only). */
    std::string reason;
};

/**
 * Classify one line as a CRC-verified frame or corrupt. The result's
 * payload views @p line, which must outlive it.
 */
UnframedRecord unframeRecord(std::string_view line);
/** A temporary line would leave the payload dangling. */
UnframedRecord unframeRecord(std::string &&line) = delete;

/** Startup-scrub counters (the service's store_* counters). */
struct ScrubStats
{
    std::uint64_t scanned = 0;      //!< records examined
    std::uint64_t valid = 0;        //!< records accepted
    std::uint64_t quarantined = 0;  //!< corrupt records sidelined
    std::uint64_t truncated = 0;    //!< torn (unterminated) tails cut
};

/**
 * Terminated-line scanner for scrub passes. next() yields only lines
 * that end in '\n'; an unterminated final line — the signature of a
 * crash mid-append — is reported through tornTail() instead, and
 * terminatedBytes() is the offset to truncate back to.
 */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &path)
        : in_(path, std::ios::binary), opened_(static_cast<bool>(in_))
    {
    }

    /** Did the file open at all? */
    bool isOpen() const { return opened_; }

    /** Next terminated line (newline stripped); false at EOF/tail. */
    bool next(std::string &line);

    /** Byte offset just past the last terminated line read. */
    std::uint64_t terminatedBytes() const { return offset_; }

    /** Did the file end with an unterminated (torn) line? */
    bool tornTail() const { return torn_; }

  private:
    std::ifstream in_;
    bool opened_ = false;
    std::uint64_t offset_ = 0;
    bool torn_ = false;
};

/**
 * Sidecar collecting the records one scrub quarantined. Lazily
 * *replaces* `<primary path>.quarantine` on the first add(); one raw
 * line per quarantined record, so damaged data is preserved for
 * post-mortems instead of destroyed. Replacement (not append) keeps
 * the sidecar bounded: corrupt records stay in the primary until a
 * compaction sheds them, so every restart re-quarantines the same
 * lines, and the sidecar always reflects the most recent scrub that
 * found damage. A scrub that quarantines nothing leaves the previous
 * sidecar in place. Sidecar I/O is best-effort — a failing quarantine
 * write must never take down the recovery itself.
 */
class QuarantineSidecar
{
  public:
    explicit QuarantineSidecar(const std::string &primaryPath)
        : path_(primaryPath + ".quarantine")
    {
    }

    /** Append the raw @p line to the sidecar (best-effort). */
    void add(std::string_view line);

    /** Records quarantined through this sidecar instance. */
    std::uint64_t count() const { return count_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::uint64_t count_ = 0;
};

/** What injectBitflips() damaged (for asserting scrub counters). */
struct CorruptionReport
{
    std::uint64_t bytesFlipped = 0;
    /** 1-based numbers of the damaged lines, sorted, deduplicated. */
    std::vector<std::uint64_t> damagedLines;
};

/**
 * Seeded fault injection for persistence files: flip @p flips distinct
 * bytes of the file at @p path in place, never touching the header
 * (line 1) or any newline byte, so the line structure survives and the
 * damage lands inside records. Each chosen byte is XOR'd with 0x80 —
 * on the ASCII files we write this can never fabricate a newline.
 * Deterministic in (seed, file contents). Backs the `store-bitflip`
 * chaos clause (docs/ROBUSTNESS.md).
 * @throws sim::SimException (kJournal) when the file cannot be read
 *         or rewritten, or holds no eligible byte.
 */
CorruptionReport injectBitflips(const std::string &path,
                                std::uint64_t seed, unsigned flips);

}  // namespace grit::harness

#endif  // GRIT_HARNESS_RECORD_FRAME_H_
