/**
 * @file
 * The option table's parser and help printer, and the groups of flags
 * the drivers share.
 */

#include "options.hh"

#include <cstdlib>
#include <iostream>

#include "common/logging.hh"
#include "stats/table.hh"

namespace fpc::cli
{

namespace
{

/** In Impl order, which is the paper's I1..I4. */
constexpr std::string_view implNames[] = {"simple", "mesa", "ifu",
                                          "banked"};

} // namespace

std::optional<Impl>
parseImpl(std::string_view text)
{
    for (int i = 0; i < 4; ++i)
        if (text == implNames[i] ||
            (text.size() == 2 && (text[0] == 'I' || text[0] == 'i') &&
             text[1] == '1' + i))
            return static_cast<Impl>(i);
    return std::nullopt;
}

OptionTable::OptionTable(const char *argv0, std::vector<std::string> forms,
                         std::string notes)
    : argv0_(argv0), forms_(std::move(forms)), notes_(std::move(notes))
{
    choice("--help", "", "show this help", "", [this](std::string_view) {
        printHelp(std::cout);
        std::exit(0);
        return true;
    });
}

void
OptionTable::flag(std::string name, std::string help, bool &field)
{
    choice(std::move(name), "", std::move(help), "",
           [&field](std::string_view) {
               field = true;
               return true;
           });
}

void
OptionTable::choice(std::string name, std::string placeholder,
                    std::string help, std::string fallback,
                    std::function<bool(std::string_view)> set)
{
    entries_.push_back({std::move(name), std::move(placeholder),
                        std::move(help), std::move(fallback),
                        std::move(set)});
}

void
OptionTable::then(std::function<void()> hook)
{
    hooks_.push_back(std::move(hook));
}

std::vector<std::string>
OptionTable::parse(int argc, char **argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.substr(0, 2) != "--") {
            positional.emplace_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string_view name = arg.substr(0, eq);
        Entry *entry = nullptr;
        for (Entry &e : entries_)
            if (e.name == name)
                entry = &e;
        if (!entry)
            fail("unknown option " + std::string(name));
        const bool bare = entry->placeholder.empty();
        if (bare && eq != std::string_view::npos)
            fail(entry->name + " takes no value");
        if (!bare && eq == std::string_view::npos)
            fail(entry->name + " needs a value: " + entry->name + "=" +
                 entry->placeholder);
        const std::string_view value =
            bare ? std::string_view() : arg.substr(eq + 1);
        if (!entry->set(value))
            fail("bad value '" + std::string(value) + "' for " +
                 entry->name + "=" + entry->placeholder);
        entry->seen = true;
    }
    for (const auto &hook : hooks_)
        hook();
    return positional;
}

bool
OptionTable::given(std::string_view name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return e.seen;
    return false;
}

std::vector<Word>
OptionTable::programArgs(const std::vector<std::string> &positional,
                         std::size_t first) const
{
    std::vector<Word> args;
    for (std::size_t i = first; i < positional.size(); ++i) {
        long v = 0;
        if (!parseNumber(positional[i], v))
            fail("bad program argument '" + positional[i] +
                 "' (want an integer)");
        args.push_back(static_cast<Word>(v & 0xFFFF));
    }
    return args;
}

void
OptionTable::fail(std::string_view message) const
{
    std::cerr << argv0_ << ": " << message << "\n";
    printHelp(std::cerr);
    std::exit(2);
}

void
OptionTable::printHelp(std::ostream &os) const
{
    for (std::size_t i = 0; i < forms_.size(); ++i)
        os << (i == 0 ? "usage: " : "       ") << argv0_ << " "
           << forms_[i] << "\n";
    // Help texts start in one column and wrap inside 79.
    constexpr std::size_t column = 34, width = 79;
    for (const Entry &e : entries_) {
        std::string line = "  " + e.name;
        if (!e.placeholder.empty())
            line += "=" + e.placeholder;
        line.append(line.size() + 2 > column ? 2 : column - line.size(),
                    ' ');
        std::istringstream words(e.help + (e.fallback.empty()
                                               ? ""
                                               : " (default " +
                                                     e.fallback + ")"));
        bool lineStart = true;
        for (std::string word; words >> word;) {
            if (!lineStart && line.size() + 1 + word.size() > width) {
                os << line << "\n";
                line.assign(column, ' ');
                lineStart = true;
            }
            if (!lineStart)
                line += ' ';
            line += word;
            lineStart = false;
        }
        os << line << "\n";
    }
    os << notes_;
}

void
engineOptions(OptionTable &t, MachineConfig &machine, LinkPlan &plan)
{
    t.choice("--impl", "simple|mesa|ifu|banked",
             "machine; I1|I2|I3|I4 name the same four",
             std::string(implNames[static_cast<int>(machine.impl)]),
             [&machine](std::string_view v) {
                 const auto impl = parseImpl(v);
                 if (impl)
                     machine.impl = *impl;
                 return impl.has_value();
             });
    t.choice("--linkage", "fat|mesa|direct", "binding",
             callLoweringName(plan.lowering), [&plan](std::string_view v) {
                 for (const CallLowering l :
                      {CallLowering::Fat, CallLowering::Mesa,
                       CallLowering::Direct})
                     if (v == callLoweringName(l)) {
                         plan.lowering = l;
                         return true;
                     }
                 return false;
             });
    t.flag("--short-calls", "use SHORTDIRECTCALL", plan.shortCalls);
    t.value("--banks", "N", "register banks of I4", machine.numBanks);
    t.value("--timeslice", "N",
            "preempt every N instructions (0 = never)",
            machine.timesliceSteps);
    // "threaded" is a synonym of "on", so older command lines work.
    t.choice("--accel", "on|off",
             "host backend: threaded-code superblocks or the eager "
             "loop; simulated numbers are identical in both",
             machine.accel.enabled ? "on" : "off",
             [&machine](std::string_view v) {
                 if (v != "on" && v != "threaded" && v != "off")
                     return false;
                 machine.accel.enabled = v != "off";
                 return true;
             });
}

std::string
EntryPoint::moduleIn(const std::vector<Module> &modules) const
{
    if (!module.empty())
        return module;
    for (const Module &m : modules)
        if (m.name == "Main")
            return m.name;
    return modules.front().name;
}

void
entryOption(OptionTable &t, EntryPoint &entry)
{
    t.choice("--entry", "Mod.proc",
             "entry point (default Main.main, or the first module's "
             "main when there is no Main)",
             "", [&entry](std::string_view v) {
                 const auto dot = v.find('.');
                 if (dot == std::string_view::npos)
                     return false;
                 entry.module = v.substr(0, dot);
                 entry.proc = v.substr(dot + 1);
                 return true;
             });
}

void
jobOptions(OptionTable &t, Tick &metricsInterval,
           std::string &postmortemDir, std::vector<std::string> &probeSpecs)
{
    t.value("--metrics-interval", "N",
            "simulated cycles between telemetry samples",
            metricsInterval);
    t.value("--postmortem-dir", "DIR",
            "write a postmortem bundle for each job that stops on an "
            "error",
            postmortemDir);
    t.value("--probe", "SPEC",
            "attach a dynamic probe (repeatable), e.g. "
            "'entry:Mod.proc{depth<=4} -> quantize(cycles)'; zero "
            "simulated cost, and accel backends deopt only the probed "
            "procedures",
            probeSpecs);
}

void
exportOptions(OptionTable &t, sched::RuntimeConfig &rc, Reports &out)
{
    t.flag("--accel-stats",
           "dump host cache counters (and export them in the metrics "
           "series)",
           out.accelStats);
    t.value("--trace-out", "FILE",
            "write a Chrome/Perfetto XFER trace, one track per worker",
            out.traceOut);
    t.value("--trace-capacity", "N", "trace ring size per worker",
            rc.traceCapacity);
    t.value("--stats-json", "FILE", "write the statistics as JSON",
            out.statsJson);
    t.value("--metrics-out", "FILE",
            "write an fpc-metrics-v1 time series per worker",
            out.metricsOut);
    t.value("--metrics-capacity", "N", "metrics ring size per worker",
            rc.metricsCapacity);
    t.value("--openmetrics-out", "FILE",
            "write the series as OpenMetrics text", out.openmetricsOut);
    t.value("--record-out", "FILE",
            "write an fpc-record-v1 recording of every job (fpcreplay)",
            out.recordOut);
    t.value("--probe-out", "FILE",
            "write probe aggregations as fpc-probes-v1", out.probeOut);
    t.then([&rc, &out] {
        rc.trace = !out.traceOut.empty();
        rc.metrics = !out.metricsOut.empty() || !out.openmetricsOut.empty();
        rc.record = !out.recordOut.empty();
    });
}

void
profileOptions(OptionTable &t, sched::RuntimeConfig &rc, Reports &out)
{
    t.flag("--profile",
           "per-procedure cycle profile from exact XFER observation",
           rc.profile);
    t.value("--profile-top", "N",
            "profile rows to print; implies --profile", out.profileTop);
    t.value("--profile-folded", "FILE",
            "write folded stacks (flamegraph.pl); implies --profile "
            "unless --profile-sampled",
            out.profileFolded);
    t.flag("--profile-sampled",
           "sampled (accel-safe) profile: cycle samples instead of "
           "exact XFER observation, so --accel fast paths keep running",
           rc.profileSampled);
    t.value("--sample-interval", "N",
            "cycles between profile samples; prime, to avoid loop "
            "aliasing",
            rc.sampleInterval);
    t.then([&t, &rc, &out] {
        if (t.given("--profile-top") ||
            (!out.profileFolded.empty() && !rc.profileSampled))
            rc.profile = true;
    });
}

void
addressOptions(OptionTable &t, std::string &host, std::uint16_t &port)
{
    t.value("--host", "ADDR", "fpcserve address", host);
    t.value("--port", "N",
            "fpcserve port; 0 lets fpcserve pick one and print it",
            port);
}

void
workersOption(OptionTable &t, unsigned &workers)
{
    t.value("--workers", "N", "worker threads", workers);
}

void
logOptions(OptionTable &t)
{
    t.choice("--log-level", "error|warn|info|debug", "stderr verbosity",
             "info", [](std::string_view v) {
                 LogLevel level;
                 if (!parseLogLevel(v, level))
                     return false;
                 setLogLevel(level);
                 return true;
             });
}

void
printAccelStats(std::string_view title, bool enabled, const AccelStats &a)
{
    std::cout << "\n--- " << title << " ---\n";
    if (!enabled) {
        std::cout << "disabled (--accel=off)\n";
        return;
    }
    std::cout << "icache: " << a.icacheHits << " hits, " << a.icacheMisses
              << " misses (" << stats::percent(a.icacheHitRate()) << ")\n"
              << "link cache: " << a.linkHits() << " hits, "
              << a.linkMisses() << " misses ("
              << stats::percent(a.linkHitRate()) << ")\n"
              << "flushes: " << a.codeFlushes << " code, "
              << a.tableFlushes << " link\n";
    if (a.probeSites != 0 || a.probeEagerSteps != 0)
        std::cout << "probes: " << a.probeSites << " armed sites, "
                  << a.probeDeoptBlocks << " deopt blocks, "
                  << a.probeEagerSteps << " eager steps\n";
}

void
warnAccelDemoted(std::string_view tool, const AccelConfig &accel,
                 bool observed, std::string_view flags,
                 std::string_view hint)
{
    if (Machine::accelDemoted(accel, observed))
        warn("{}: {} observe every XFER, which forces the eager loop; "
             "--accel=on keeps only its XFER caches{}",
             tool, flags, hint);
}

} // namespace fpc::cli
