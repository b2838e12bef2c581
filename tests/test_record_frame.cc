/** @file Record-framing suite: CRC32C correctness, frame/unframe round
 *  trips, corrupt-line classification, torn-tail scanning, the
 *  quarantine sidecar, and the seeded store-bitflip injector. */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/record_frame.h"
#include "simcore/sim_error.h"
#include "temp_path.h"

namespace grit::harness {
namespace {

using test::TempPath;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spill(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

// ---- CRC32C ----------------------------------------------------------

TEST(Crc32c, MatchesCheckValue)
{
    // The canonical CRC32C check value (RFC 3720 appendix).
    EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero)
{
    EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32c, SeedChainsIncrementally)
{
    const std::string whole = "the quick brown fox jumps";
    for (std::size_t split = 0; split <= whole.size(); ++split) {
        const std::string_view head(whole.data(), split);
        const std::string_view tail(whole.data() + split,
                                    whole.size() - split);
        EXPECT_EQ(crc32c(tail, crc32c(head)), crc32c(whole));
    }
}

TEST(Crc32c, SensitiveToEveryByte)
{
    std::string data = "{\"fingerprint\":\"abc123\",\"cycles\":42}";
    const std::uint32_t clean = crc32c(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        std::string mutated = data;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x80);
        EXPECT_NE(crc32c(mutated), clean) << "byte " << i;
    }
}

// ---- frame / unframe round trips -------------------------------------

TEST(RecordFrame, RoundTripsPayload)
{
    const std::string payload = "{\"k\":\"v\",\"n\":17}";
    const std::string line = frameRecord(payload);
    EXPECT_EQ(line.substr(0, kFrameMagic.size()), kFrameMagic);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    const UnframedRecord record = unframeRecord(line);
    EXPECT_EQ(record.kind, RecordKind::kFramed);
    EXPECT_EQ(record.payload, payload);
}

TEST(RecordFrame, RoundTripsEmptyAndLargePayloads)
{
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{4096},
          std::size_t{1} << 16}) {
        const std::string payload(n, 'x');
        const std::string line = frameRecord(payload);
        const UnframedRecord record = unframeRecord(line);
        EXPECT_EQ(record.kind, RecordKind::kFramed);
        EXPECT_EQ(record.payload, payload);
    }
}

TEST(RecordFrame, ClassifiesLegacyJsonLines)
{
    // A bare JSON record line (the pre-framing format) carries no CRC,
    // so nothing vouches for it: it is damage like any other.
    const std::string_view line = "{\"legacy\":true}";
    const UnframedRecord record = unframeRecord(line);
    EXPECT_EQ(record.kind, RecordKind::kCorrupt);
    EXPECT_TRUE(record.payload.empty());
    EXPECT_FALSE(record.reason.empty());
}

TEST(RecordFrame, ClassifiesGarbageAsCorrupt)
{
    for (const std::string_view line :
         {std::string_view(""), std::string_view("hello"),
          std::string_view("GF1"), std::string_view("GF1 xyz"),
          std::string_view("GF1 0000000g 00000000 "),
          std::string_view("GF1 00000001 00000000")}) {
        const UnframedRecord record = unframeRecord(line);
        EXPECT_EQ(record.kind, RecordKind::kCorrupt) << line;
        EXPECT_FALSE(record.reason.empty()) << line;
    }
}

TEST(RecordFrame, DetectsLengthMismatch)
{
    std::string line = frameRecord("abcdef");
    line += "tail";  // payload longer than the declared length
    EXPECT_EQ(unframeRecord(line).kind, RecordKind::kCorrupt);
}

TEST(RecordFrame, AnySingleBitflipIsNeverValid)
{
    // The tentpole guarantee: no single flipped high bit anywhere in
    // a framed line yields a *valid* frame with a different payload.
    const std::string payload = "{\"row\":\"gemm\",\"cycles\":123456}";
    const std::string line = frameRecord(payload);
    for (std::size_t i = 0; i < line.size(); ++i) {
        std::string mutated = line;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x80);
        const UnframedRecord record = unframeRecord(mutated);
        if (record.kind == RecordKind::kFramed)
            EXPECT_EQ(record.payload, payload) << "byte " << i;
        else
            EXPECT_EQ(record.kind, RecordKind::kCorrupt) << "byte " << i;
    }
}

// ---- RecordReader ----------------------------------------------------

TEST(RecordReader, YieldsTerminatedLinesOnly)
{
    TempPath file("record_reader.txt");
    spill(file.str(), "one\ntwo\nthree");  // torn third line

    RecordReader reader(file.str());
    ASSERT_TRUE(reader.isOpen());
    std::string line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "one");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line, "two");
    EXPECT_FALSE(reader.next(line));
    EXPECT_TRUE(reader.tornTail());
    EXPECT_EQ(reader.terminatedBytes(), 8u);  // "one\ntwo\n"
}

TEST(RecordReader, CleanFileHasNoTornTail)
{
    TempPath file("record_reader_clean.txt");
    spill(file.str(), "one\ntwo\n");

    RecordReader reader(file.str());
    std::string line;
    while (reader.next(line)) {
    }
    EXPECT_FALSE(reader.tornTail());
    EXPECT_EQ(reader.terminatedBytes(), 8u);
}

TEST(RecordReader, MissingFileReportsNotOpen)
{
    RecordReader reader(std::string(::testing::TempDir()) +
                        "no_such_record_file");
    EXPECT_FALSE(reader.isOpen());
}

// ---- QuarantineSidecar -----------------------------------------------

TEST(QuarantineSidecar, PreservesRawLines)
{
    TempPath file("quarantine_primary.jsonl");
    {
        QuarantineSidecar sidecar(file.str());
        EXPECT_EQ(sidecar.count(), 0u);
        sidecar.add("damaged line A");
        sidecar.add("damaged line B");
        EXPECT_EQ(sidecar.count(), 2u);
    }
    EXPECT_EQ(slurp(file.str() + ".quarantine"),
              "damaged line A\ndamaged line B\n");
}

TEST(QuarantineSidecar, RescrubReplacesInsteadOfAccumulating)
{
    // The same corrupt lines re-quarantine on every restart (they stay
    // in the primary until compaction), so a fresh sidecar instance
    // must replace the file, not append to it — otherwise the sidecar
    // grows without bound across restarts.
    TempPath file("quarantine_rescrub.jsonl");
    {
        QuarantineSidecar first(file.str());
        first.add("damaged line A");
        first.add("damaged line B");
    }
    {
        QuarantineSidecar second(file.str());
        second.add("damaged line A");
        second.add("damaged line B");
    }
    EXPECT_EQ(slurp(file.str() + ".quarantine"),
              "damaged line A\ndamaged line B\n");

    // A scrub that quarantines nothing leaves the sidecar untouched.
    QuarantineSidecar idle(file.str());
    EXPECT_EQ(slurp(file.str() + ".quarantine"),
              "damaged line A\ndamaged line B\n");
}

TEST(QuarantineSidecar, NoFileUntilFirstAdd)
{
    TempPath file("quarantine_lazy.jsonl");
    QuarantineSidecar sidecar(file.str());
    std::ifstream probe(sidecar.path());
    EXPECT_FALSE(probe.is_open());
}

// ---- injectBitflips --------------------------------------------------

TEST(InjectBitflips, DeterministicAndSparesHeaderAndNewlines)
{
    const std::string image = "{\"schema\":\"header\"}\n" +
                              frameRecord("{\"a\":1}") + "\n" +
                              frameRecord("{\"b\":2}") + "\n";
    TempPath fileA("bitflip_a.jsonl");
    TempPath fileB("bitflip_b.jsonl");
    spill(fileA.str(), image);
    spill(fileB.str(), image);

    const CorruptionReport a = injectBitflips(fileA.str(), 42, 5);
    const CorruptionReport b = injectBitflips(fileB.str(), 42, 5);
    EXPECT_EQ(a.bytesFlipped, 5u);
    EXPECT_EQ(a.damagedLines, b.damagedLines);
    EXPECT_EQ(slurp(fileA.str()), slurp(fileB.str()));

    const std::string damaged = slurp(fileA.str());
    ASSERT_EQ(damaged.size(), image.size());
    // Header line and every newline byte are untouched; exactly five
    // other bytes differ.
    const std::size_t headerEnd = image.find('\n');
    std::size_t flipped = 0;
    for (std::size_t i = 0; i < image.size(); ++i) {
        if (damaged[i] == image[i])
            continue;
        ++flipped;
        EXPECT_GT(i, headerEnd);
        EXPECT_NE(image[i], '\n');
        EXPECT_NE(damaged[i], '\n');
    }
    EXPECT_EQ(flipped, 5u);
    for (const std::uint64_t line : a.damagedLines) {
        EXPECT_GE(line, 2u);
        EXPECT_LE(line, 3u);
    }
}

TEST(InjectBitflips, DifferentSeedsDamageDifferently)
{
    const std::string image =
        "{\"schema\":\"header\"}\n" +
        frameRecord(std::string(256, 'p')) + "\n";
    TempPath fileA("bitflip_seed_a.jsonl");
    TempPath fileB("bitflip_seed_b.jsonl");
    spill(fileA.str(), image);
    spill(fileB.str(), image);
    injectBitflips(fileA.str(), 1, 4);
    injectBitflips(fileB.str(), 2, 4);
    EXPECT_NE(slurp(fileA.str()), slurp(fileB.str()));
}

TEST(InjectBitflips, DamagedFrameFailsValidation)
{
    const std::string payload = "{\"fingerprint\":\"deadbeef\"}";
    const std::string image =
        "{\"schema\":\"header\"}\n" + frameRecord(payload) + "\n";
    TempPath file("bitflip_invalid.jsonl");
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        spill(file.str(), image);
        injectBitflips(file.str(), seed, 1);
        std::ifstream in(file.str());
        std::string header, line;
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_TRUE(std::getline(in, line));
        const UnframedRecord record = unframeRecord(line);
        // A flip inside the frame must never verify as the original
        // payload; almost always it is plain corrupt.
        if (record.kind == RecordKind::kFramed) {
            EXPECT_EQ(record.payload, payload) << "seed " << seed;
        }
    }
}

TEST(InjectBitflips, RefusesFileWithNoEligibleBytes)
{
    TempPath file("bitflip_header_only.jsonl");
    spill(file.str(), "{\"schema\":\"header\"}\n");
    EXPECT_THROW(injectBitflips(file.str(), 7, 1), sim::SimException);
    EXPECT_THROW(injectBitflips(std::string(::testing::TempDir()) +
                                    "no_such_store",
                                7, 1),
                 sim::SimException);
}

}  // namespace
}  // namespace grit::harness
