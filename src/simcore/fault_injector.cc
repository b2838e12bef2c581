#include "simcore/fault_injector.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

namespace grit::sim {

namespace {

/** splitmix64 finalizer: the stateless core of every chaos decision. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Clause stream ids; spread apart so per-link offsets never collide. */
constexpr std::uint64_t kStreamLinkFlap = 1ULL << 32;
constexpr std::uint64_t kStreamLinkSlow = 2ULL << 32;
constexpr std::uint64_t kStreamService = 3ULL << 32;

/** Is @p now inside the active duty fraction of its window? */
bool
dutyActive(Cycle now, Cycle period, double duty)
{
    if (period == 0)
        return true;  // "always"
    const Cycle active = static_cast<Cycle>(
        static_cast<double>(period) * duty);
    return now % period < active;
}

[[noreturn]] void
specError(const std::string &clause, const std::string &what)
{
    throw SimException(ErrorCode::kChaosSpec,
                       "clause '" + clause + "': " + what, "--chaos");
}

/** The ceiling of the `unsigned` fields and of `svclat:extra`. */
constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();

std::uint64_t
parseUint(const std::string &clause, const std::string &key,
          const std::string &value,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (value.empty() || value.find_first_not_of("0123456789") !=
                             std::string::npos)
        specError(clause, key + " wants a non-negative integer, got '" +
                              value + "'");
    errno = 0;
    const std::uint64_t v = std::strtoull(value.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        specError(clause, key + " must be at most " + std::to_string(max) +
                              ", got '" + value + "'");
    return v;
}

double
parseFraction(const std::string &clause, const std::string &key,
              const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || v < 0.0 ||
        v > 1.0)
        specError(clause, key + " wants a fraction in [0, 1], got '" +
                              value + "'");
    return v;
}

/** Split @p text on @p sep, dropping empty pieces. */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string piece;
    std::istringstream in(text);
    while (std::getline(in, piece, sep))
        if (!piece.empty())
            out.push_back(piece);
    return out;
}

}  // namespace

bool
ChaosSpec::any() const
{
    return linkFlap.period > 0 || linkSlow.factor > 1 ||
           serviceDelay.extra > 0 ||
           (pressure.pages > 0 && pressure.period > 0) ||
           promoteStorm.period > 0 || paFlush.period > 0 ||
           paDisable.start != kNever || hang.at != kNever;
}

ChaosSpec
ChaosSpec::parse(const std::string &text)
{
    ChaosSpec spec;
    for (const std::string &clause : split(text, ';')) {
        const std::size_t colon = clause.find(':');
        const std::string head = clause.substr(0, colon);

        // Bare `seed=N` clause.
        if (colon == std::string::npos) {
            const std::size_t eq = clause.find('=');
            if (eq == std::string::npos || clause.substr(0, eq) != "seed")
                specError(clause,
                          "expected 'name:key=value,...' or 'seed=N'");
            spec.seed = parseUint(clause, "seed", clause.substr(eq + 1));
            continue;
        }

        for (const std::string &param :
             split(clause.substr(colon + 1), ',')) {
            const std::size_t eq = param.find('=');
            if (eq == std::string::npos)
                specError(clause, "parameter '" + param +
                                      "' is not key=value");
            const std::string key = param.substr(0, eq);
            const std::string value = param.substr(eq + 1);
            auto uintv = [&] { return parseUint(clause, key, value); };
            auto uint32v = [&] {
                return static_cast<std::uint32_t>(
                    parseUint(clause, key, value, kMax32));
            };
            auto fracv = [&] {
                return parseFraction(clause, key, value);
            };

            if (head == "linkflap") {
                if (key == "period")
                    spec.linkFlap.period = uintv();
                else if (key == "duty")
                    spec.linkFlap.duty = fracv();
                else if (key == "prob")
                    spec.linkFlap.prob = fracv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "linkslow") {
                if (key == "factor")
                    spec.linkSlow.factor = uint32v();
                else if (key == "period")
                    spec.linkSlow.period = uintv();
                else if (key == "duty")
                    spec.linkSlow.duty = fracv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "svclat") {
                if (key == "extra")
                    spec.serviceDelay.extra = uint32v();
                else if (key == "period")
                    spec.serviceDelay.period = uintv();
                else if (key == "duty")
                    spec.serviceDelay.duty = fracv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "pressure") {
                if (key == "pages")
                    spec.pressure.pages = uint32v();
                else if (key == "period")
                    spec.pressure.period = uintv();
                else if (key == "start")
                    spec.pressure.start = uintv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "promostorm") {
                if (key == "period")
                    spec.promoteStorm.period = uintv();
                else if (key == "start")
                    spec.promoteStorm.start = uintv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "paflush") {
                if (key == "period")
                    spec.paFlush.period = uintv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "padisable") {
                if (key == "start")
                    spec.paDisable.start = uintv();
                else if (key == "end")
                    spec.paDisable.end = uintv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "hang") {
                if (key == "at")
                    spec.hang.at = uintv();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else if (head == "store-bitflip") {
                if (key == "seed")
                    spec.storeBitflip.seed = uintv();
                else if (key == "flips")
                    spec.storeBitflip.flips = uint32v();
                else
                    specError(clause, "unknown key '" + key + "'");
            } else {
                specError(clause, "unknown perturbation '" + head + "'");
            }
        }

        // Per-clause consistency checks.
        if (head == "linkflap" && spec.linkFlap.period == 0)
            specError(clause, "linkflap needs period > 0");
        if (head == "linkslow" && spec.linkSlow.factor < 1)
            specError(clause, "linkslow needs factor >= 1");
        if (head == "pressure" &&
            (spec.pressure.pages == 0 || spec.pressure.period == 0))
            specError(clause, "pressure needs pages > 0 and period > 0");
        if (head == "promostorm" && spec.promoteStorm.period == 0)
            specError(clause, "promostorm needs period > 0");
        if (head == "paflush" && spec.paFlush.period == 0)
            specError(clause, "paflush needs period > 0");
        if (head == "padisable" && spec.paDisable.start == kNever)
            specError(clause, "padisable needs start=N");
        if (head == "padisable" &&
            spec.paDisable.end <= spec.paDisable.start)
            specError(clause, "padisable needs end > start");
        if (head == "hang" && spec.hang.at == kNever)
            specError(clause, "hang needs at=N");
        // A bare `store-bitflip:seed=S` means one flip.
        if (head == "store-bitflip" && spec.storeBitflip.flips == 0)
            spec.storeBitflip.flips = 1;
    }
    return spec;
}

std::string
ChaosSpec::summary() const
{
    std::string out;
    auto add = [&out](std::string_view name) {
        if (!out.empty())
            out += "+";
        out += name;
    };
    if (linkFlap.period > 0)
        add("linkflap");
    if (linkSlow.factor > 1)
        add("linkslow");
    if (serviceDelay.extra > 0)
        add("svclat");
    if (pressure.pages > 0 && pressure.period > 0)
        add("pressure");
    if (promoteStorm.period > 0)
        add("promostorm");
    if (paFlush.period > 0)
        add("paflush");
    if (paDisable.start != kNever)
        add("padisable");
    if (hang.at != kNever)
        add("hang");
    if (storeBitflip.flips > 0)
        add("store-bitflip");
    return out.empty() ? "none" : out;
}

double
FaultInjector::unit(std::uint64_t stream, std::uint64_t window) const
{
    const std::uint64_t h =
        mix64(spec_.seed ^ mix64(stream) ^ mix64(window * 0x632be59bULL));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t
FaultInjector::linkStream(std::uint64_t clause, GpuId src, GpuId dst)
{
    // +2 keeps kHostId (-1) and kNoGpu (-2) non-negative.
    const std::uint64_t s = static_cast<std::uint64_t>(src + 2);
    const std::uint64_t d = static_cast<std::uint64_t>(dst + 2);
    return clause + s * 1024 + d;
}

bool
FaultInjector::linkDown(GpuId src, GpuId dst, Cycle now) const
{
    const ChaosSpec::LinkFlap &f = spec_.linkFlap;
    if (f.period == 0)
        return false;
    if (!dutyActive(now, f.period, f.duty))
        return false;
    if (f.prob >= 1.0)
        return true;
    const std::uint64_t window = now / f.period;
    return unit(linkStream(kStreamLinkFlap, src, dst), window) < f.prob;
}

unsigned
FaultInjector::linkSlowFactor(GpuId src, GpuId dst, Cycle now) const
{
    const ChaosSpec::LinkSlow &s = spec_.linkSlow;
    if (s.factor <= 1)
        return 1;
    if (!dutyActive(now, s.period, s.duty))
        return 1;
    (void)src;
    (void)dst;
    return s.factor;
}

Cycle
FaultInjector::extraServiceCycles(Cycle now) const
{
    const ChaosSpec::ServiceDelay &d = spec_.serviceDelay;
    if (d.extra == 0)
        return 0;
    return dutyActive(now, d.period, d.duty) ? d.extra : 0;
}

bool
FaultInjector::paCacheDown(Cycle now) const
{
    return spec_.paDisable.start != ChaosSpec::kNever &&
           now >= spec_.paDisable.start && now < spec_.paDisable.end;
}

bool
FaultInjector::paFlushDue(Cycle now)
{
    if (spec_.paFlush.period == 0)
        return false;
    const std::uint64_t window = now / spec_.paFlush.period;
    if (window <= lastPaFlushWindow_)
        return false;
    lastPaFlushWindow_ = window;
    return true;
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    return linkRetries_ + linkForced_ + slowTransfers_ + serviceDelays_ +
           pressureEvictions_ + promoteSplinters_ + paFlushes_ +
           paTableFallbacks_;
}

std::uint64_t
FaultInjector::recoveredTotal() const
{
    return linkRecoveries_ + migrationFallbacks_ + pressureEvictions_ +
           paTableFallbacks_;
}

std::vector<std::pair<std::string, std::uint64_t>>
FaultInjector::counters() const
{
    return {
        {"chaos.link_retries", linkRetries_},
        {"chaos.link_recoveries", linkRecoveries_},
        {"chaos.link_forced", linkForced_},
        {"chaos.slow_transfers", slowTransfers_},
        {"chaos.service_delays", serviceDelays_},
        {"chaos.migration_fallbacks", migrationFallbacks_},
        {"chaos.pressure_evictions", pressureEvictions_},
        {"chaos.promote_splinters", promoteSplinters_},
        {"chaos.pa_flushes", paFlushes_},
        {"chaos.pa_table_fallbacks", paTableFallbacks_},
        {"chaos.injected", injectedTotal()},
        {"chaos.recovered", recoveredTotal()},
    };
}

}  // namespace grit::sim
