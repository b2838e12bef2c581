#include "harness/record_frame.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "simcore/rng.h"
#include "simcore/sim_error.h"

namespace grit::harness {

namespace {

/**
 * Slice-by-8 lookup tables for the Castagnoli polynomial (reflected
 * 0x82F63B78), built once at startup. Table 0 is the classic
 * byte-at-a-time table; table j advances a byte that is j positions
 * deeper in the 8-byte slice.
 */
struct Crc32cTables
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};

    Crc32cTables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i)
            for (std::size_t j = 1; j < 8; ++j)
                t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFF];
    }
};

const Crc32cTables kCrc;

std::string
hex32(std::uint32_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/** Parse exactly 8 lowercase hex digits; false on anything else. */
bool
parseHex32(std::string_view text, std::uint32_t &out)
{
    if (text.size() != 8)
        return false;
    std::uint32_t v = 0;
    for (const char c : text) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint32_t>(c - 'a' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

[[noreturn]] void
frameFail(const std::string &message, const std::string &context)
{
    throw sim::SimException(sim::ErrorCode::kJournal, message, context);
}

}  // namespace

std::uint32_t
crc32c(std::string_view data, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    const auto *p = reinterpret_cast<const unsigned char *>(data.data());
    std::size_t n = data.size();
    while (n >= 8) {
        const std::uint32_t low =
            crc ^ (static_cast<std::uint32_t>(p[0]) |
                   static_cast<std::uint32_t>(p[1]) << 8 |
                   static_cast<std::uint32_t>(p[2]) << 16 |
                   static_cast<std::uint32_t>(p[3]) << 24);
        crc = kCrc.t[7][low & 0xFF] ^ kCrc.t[6][(low >> 8) & 0xFF] ^
              kCrc.t[5][(low >> 16) & 0xFF] ^ kCrc.t[4][low >> 24] ^
              kCrc.t[3][p[4]] ^ kCrc.t[2][p[5]] ^ kCrc.t[1][p[6]] ^
              kCrc.t[0][p[7]];
        p += 8;
        n -= 8;
    }
    while (n-- > 0)
        crc = (crc >> 8) ^ kCrc.t[0][(crc ^ *p++) & 0xFF];
    return ~crc;
}

std::string
frameRecord(std::string_view payload)
{
    std::string out;
    out.reserve(kFrameMagic.size() + 18 + payload.size());
    out += kFrameMagic;
    out += hex32(static_cast<std::uint32_t>(payload.size()));
    out += ' ';
    out += hex32(crc32c(payload));
    out += ' ';
    out += payload;
    return out;
}

UnframedRecord
unframeRecord(std::string_view line)
{
    UnframedRecord record;
    if (line.substr(0, kFrameMagic.size()) != kFrameMagic) {
        record.reason = "not a frame";
        return record;
    }
    // "GF1 " + 8 hex + ' ' + 8 hex + ' ' = 22 bytes of header.
    constexpr std::size_t kHeaderBytes = 22;
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    if (line.size() < kHeaderBytes ||
        !parseHex32(line.substr(4, 8), length) || line[12] != ' ' ||
        !parseHex32(line.substr(13, 8), crc) || line[21] != ' ') {
        record.reason = "malformed frame header";
        return record;
    }
    const std::string_view payload = line.substr(kHeaderBytes);
    if (payload.size() != length) {
        record.reason = "frame length mismatch (want " +
                        std::to_string(length) + " bytes, have " +
                        std::to_string(payload.size()) + ")";
        return record;
    }
    const std::uint32_t actual = crc32c(payload);
    if (actual != crc) {
        record.reason = "crc mismatch (want " + hex32(crc) + ", got " +
                        hex32(actual) + ")";
        return record;
    }
    record.kind = RecordKind::kFramed;
    record.payload = payload;
    return record;
}

bool
RecordReader::next(std::string &line)
{
    if (!std::getline(in_, line))
        return false;
    if (in_.eof()) {
        // getline hit EOF before a '\n': an unterminated torn tail.
        torn_ = !line.empty();
        return false;
    }
    offset_ += line.size() + 1;
    return true;
}

void
QuarantineSidecar::add(std::string_view line)
{
    ++count_;
    // Truncate, not append: corrupt records stay in the primary file
    // until a compaction sheds them, so every restart re-quarantines
    // the same lines — appending would grow the sidecar without bound.
    // Replacing on the first add keeps exactly one copy per currently
    // corrupt record, and a scrub that finds nothing leaves the
    // previous sidecar untouched for post-mortems.
    if (!out_.is_open())
        out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_)
        return;  // corrupt records are skipped but not preserved
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
    out_.put('\n');
    out_.flush();
}

CorruptionReport
injectBitflips(const std::string &path, std::uint64_t seed,
               unsigned flips)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        frameFail("cannot read file for corruption injection", path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Eligible targets: everything after the header line except
    // newline bytes, so the damage lands inside records and the line
    // structure (which the scrub walks) survives.
    const std::size_t headerEnd = bytes.find('\n');
    std::vector<std::uint64_t> eligible;
    if (headerEnd != std::string::npos)
        for (std::size_t i = headerEnd + 1; i < bytes.size(); ++i)
            if (bytes[i] != '\n')
                eligible.push_back(i);
    if (eligible.empty())
        frameFail("no record bytes to corrupt (empty or header-only "
                  "file)",
                  path);

    // Seeded partial Fisher-Yates: the first `flips` slots end up with
    // distinct positions, deterministically in (seed, file size).
    const std::size_t picks =
        std::min<std::size_t>(flips, eligible.size());
    for (std::size_t i = 0; i < picks; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    sim::mix64(seed ^ (i + 1)) % (eligible.size() - i));
        std::swap(eligible[i], eligible[j]);
    }

    CorruptionReport report;
    for (std::size_t i = 0; i < picks; ++i) {
        const std::uint64_t off = eligible[i];
        bytes[off] = static_cast<char>(
            static_cast<unsigned char>(bytes[off]) ^ 0x80u);
        ++report.bytesFlipped;
        std::uint64_t lineNo = 1;
        for (std::uint64_t b = 0; b < off; ++b)
            if (bytes[b] == '\n')
                ++lineNo;
        report.damagedLines.push_back(lineNo);
    }
    std::sort(report.damagedLines.begin(), report.damagedLines.end());
    report.damagedLines.erase(std::unique(report.damagedLines.begin(),
                                          report.damagedLines.end()),
                              report.damagedLines.end());

    // Patch the chosen bytes in place (no truncation): reopen
    // read-write and overwrite the whole image — simplest, and these
    // files are small test/ops artifacts when being corrupted.
    std::ofstream out(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    if (!out)
        frameFail("cannot rewrite file for corruption injection", path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out)
        frameFail("short write during corruption injection", path);
    return report;
}

}  // namespace grit::harness
