/**
 * @file
 * The drivers' option table: each flag is declared once, with its value
 * placeholder, its help text and the field it writes; one loop parses
 * the command line from the table and the table prints --help. Groups
 * declare the flags several drivers share, writing straight into
 * MachineConfig, LinkPlan and sched::RuntimeConfig; --help shows each
 * field's starting value as the default.
 */

#ifndef FPC_TOOLS_OPTIONS_HH
#define FPC_TOOLS_OPTIONS_HH

#include <charconv>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "machine/machine.hh"
#include "program/loader.hh"
#include "sched/runtime.hh"

namespace fpc::cli
{

/** Decimal parse of all of `text` into `out`: no blanks or trailing
 *  characters, no sign on an unsigned T, nothing past T's range, and a
 *  finite floating-point value. `out` is kept on failure. */
template <typename T>
bool
parseNumber(std::string_view text, T &out)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    out = v;
    return true;
}

/** simple|mesa|ifu|banked or I1..I4 (i1..i4). */
std::optional<Impl> parseImpl(std::string_view text);

class OptionTable
{
  public:
    /** `forms` follow the program name in the synopsis; `notes` follow
     *  the options. Declares --help. */
    OptionTable(const char *argv0, std::vector<std::string> forms,
                std::string notes = "");

    OptionTable(const OptionTable &) = delete;
    OptionTable &operator=(const OptionTable &) = delete;

    /** A bare flag that sets `field`. */
    void flag(std::string name, std::string help, bool &field);

    /** --name=VALUE into `field`: a string, one more element of a
     *  string vector (the flag repeats), or a parseNumber() number. A
     *  nonzero, nonempty starting value is printed as the default. */
    template <typename T>
    void value(std::string name, std::string placeholder,
               std::string help, T &field);

    /** --name=VALUE through `set`, which returns false to reject it;
     *  --help prints `fallback` as the default. */
    void choice(std::string name, std::string placeholder,
                std::string help, std::string fallback,
                std::function<bool(std::string_view)> set);

    /** Run `hook` after the last argument is parsed. */
    void then(std::function<void()> hook);

    /** Parse each argument that starts with "--" through the table and
     *  return the others in order. --help prints the help and exits 0;
     *  an unknown flag or a missing, unexpected or rejected value
     *  fails(). */
    std::vector<std::string> parse(int argc, char **argv);

    /** Whether `name` appeared on the command line. */
    bool given(std::string_view name) const;

    /** positional[first..] as program arguments: decimal integers,
     *  wrapped to 16 bits as machine words are; anything else fails(). */
    std::vector<Word> programArgs(const std::vector<std::string> &positional,
                                  std::size_t first) const;

    /** Print `message` and the help to stderr, then exit 2. */
    [[noreturn]] void fail(std::string_view message) const;

    void printHelp(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string name;
        std::string placeholder; ///< empty for a bare flag
        std::string help;
        std::string fallback;
        std::function<bool(std::string_view)> set;
        bool seen = false;
    };

    std::string argv0_;
    std::vector<std::string> forms_;
    std::string notes_;
    std::vector<Entry> entries_;
    std::vector<std::function<void()>> hooks_;
};

template <typename T>
void
OptionTable::value(std::string name, std::string placeholder,
                   std::string help, T &field)
{
    std::string fallback;
    std::function<bool(std::string_view)> set;
    if constexpr (std::is_same_v<T, std::string>) {
        fallback = field;
        set = [&field](std::string_view v) {
            field = v;
            return true;
        };
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        set = [&field](std::string_view v) {
            field.emplace_back(v);
            return true;
        };
    } else {
        static_assert(std::is_arithmetic_v<T>);
        if (field != 0) {
            std::ostringstream os;
            os << field;
            fallback = os.str();
        }
        set = [&field](std::string_view v) {
            return parseNumber(v, field);
        };
    }
    choice(std::move(name), std::move(placeholder), std::move(help),
           std::move(fallback), std::move(set));
}

/** What fpcvm and fpcrun print and write; empty paths write nothing. */
struct Reports
{
    bool accelStats = false;
    unsigned profileTop = 20;
    std::string profileFolded;
    std::string traceOut;
    std::string statsJson;
    std::string metricsOut;
    std::string openmetricsOut;
    std::string recordOut;
    std::string probeOut;
    std::vector<std::string> probeSpecs;
};

/** --impl --linkage --short-calls --banks --timeslice --accel. */
void engineOptions(OptionTable &t, MachineConfig &machine,
                   LinkPlan &plan);

/** The procedure a run starts in. */
struct EntryPoint
{
    std::string module; ///< empty: Main, else the first module
    std::string proc = "main";

    /** `module`, or its default among `modules`. */
    std::string moduleIn(const std::vector<Module> &modules) const;
};

/** --entry=Mod.proc. */
void entryOption(OptionTable &t, EntryPoint &entry);

/** --metrics-interval --postmortem-dir --probe: what a driver
 *  observes in every job it runs. */
void jobOptions(OptionTable &t, Tick &metricsInterval,
                std::string &postmortemDir,
                std::vector<std::string> &probeSpecs);

/** fpcvm's and fpcrun's artifacts; sets rc.trace, rc.metrics and
 *  rc.record from the paths. */
void exportOptions(OptionTable &t, sched::RuntimeConfig &rc,
                   Reports &out);

/** --profile* and --sample-interval, with the rules by which
 *  --profile-top and --profile-folded imply --profile. */
void profileOptions(OptionTable &t, sched::RuntimeConfig &rc,
                    Reports &out);

/** --host --port of an fpcserve. */
void addressOptions(OptionTable &t, std::string &host,
                    std::uint16_t &port);

/** --workers. */
void workersOption(OptionTable &t, unsigned &workers);

/** --log-level (applied as it is parsed). */
void logOptions(OptionTable &t);

/** Print --accel-stats' host cache counters under `title`. */
void printAccelStats(std::string_view title, bool enabled,
                     const AccelStats &a);

/** Warn up front when an XFER observer demotes the accelerated backend
 *  to the eager loop (Machine::accelDemoted). `flags` names the
 *  driver's observing options; `hint` ends the message. */
void warnAccelDemoted(std::string_view tool, const AccelConfig &accel,
                      bool observed, std::string_view flags,
                      std::string_view hint = "");

} // namespace fpc::cli

#endif // FPC_TOOLS_OPTIONS_HH
