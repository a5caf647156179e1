/**
 * @file
 * Shared scaffolding for the experiment benches: canned programs,
 * machine rigs, and the main() pattern (print the paper-shape tables,
 * then run the google-benchmark microbenchmarks).
 */

#ifndef FPC_BENCH_BENCH_UTIL_HH
#define FPC_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/json.hh"
#include "program/loader.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace fpc::bench
{

/** A loaded image plus a machine, built in one go. */
struct Rig
{
    std::unique_ptr<Memory> mem;
    LoadedImage image;
    std::unique_ptr<Machine> machine;

    Rig(const std::vector<Module> &modules, const LinkPlan &plan,
        const MachineConfig &config)
    {
        const SystemLayout layout;
        mem = std::make_unique<Memory>(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        image = loader.load(*mem, plan);
        machine = std::make_unique<Machine>(*mem, image, config);
    }
};

/** Run Mod.proc(args) to completion; aborts the bench on error. */
inline Word
runToResult(Machine &machine, const std::string &module,
            const std::string &proc, std::vector<Word> args)
{
    machine.start(module, proc, args);
    const RunResult result = machine.run();
    if (result.reason != StopReason::TopReturn) {
        std::cerr << "bench program failed: " << result.message << "\n";
        std::abort();
    }
    return machine.popValue();
}

/** Warm run (fills free lists and caches), reset all statistics,
 *  then a measured run — boot effects excluded. */
inline Word
runSteadyState(Rig &rig, const std::string &module,
               const std::string &proc, std::vector<Word> args)
{
    runToResult(*rig.machine, module, proc, args);
    rig.machine->resetStats();
    rig.machine->heap().resetStats();
    rig.mem->resetStats();
    return runToResult(*rig.machine, module, proc, std::move(args));
}

/** The standard MiniMesa benchmark program: call-dense, loopy. */
inline std::vector<Module>
primesProgram()
{
    return lang::compile(R"(
        module Primes;
        var count;
        proc isPrime(n) {
            var d;
            if (n < 2) { return 0; }
            d = 2;
            while (d * d <= n) {
                if (n % d == 0) { return 0; }
                d = d + 1;
            }
            return 1;
        }
        proc main(limit) {
            var i;
            i = 2;
            while (i < limit) {
                if (isPrime(i)) { count = count + 1; }
                i = i + 1;
            }
            return count;
        }
    )");
}

/** A recursion-heavy program (deep LIFO chains). */
inline std::vector<Module>
fibProgram()
{
    return lang::compile(R"(
        module Fib;
        proc fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        proc main(n) { return fib(n); }
    )");
}

/** Strip --<name>=<uint> from argv (so google-benchmark never sees
 *  it) and return its value, or fallback when absent. */
inline unsigned
stripUintFlag(int &argc, char **argv, const std::string &name,
              unsigned fallback)
{
    unsigned value = fallback;
    const std::string prefix = "--" + name + "=";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0) {
            value = static_cast<unsigned>(
                std::strtoul(arg.c_str() + prefix.size(), nullptr, 10));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return value;
}

/**
 * Min-of-N wall-clock timing: run fn() `repeat` times and return the
 * fastest wall-clock seconds. The minimum — not the mean — is the
 * stable statistic for host time: interference (scheduling, frequency
 * excursions, cache pollution from neighbors) only ever adds time, so
 * the fastest repetition is the best estimate of the undisturbed cost,
 * and the one worth gating on.
 */
template <typename Fn>
inline double
minWallSeconds(unsigned repeat, Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    double best = 0.0;
    if (repeat == 0)
        repeat = 1;
    for (unsigned r = 0; r < repeat; ++r) {
        const auto t0 = clock::now();
        fn();
        const std::chrono::duration<double> dt = clock::now() - t0;
        if (r == 0 || dt.count() < best)
            best = dt.count();
    }
    return best;
}

/** Plan/config pairs for the four implementations. */
struct EngineCombo
{
    Impl impl;
    CallLowering lowering;
    bool shortCalls;
};

inline std::vector<EngineCombo>
allEngines()
{
    return {
        {Impl::Simple, CallLowering::Fat, false},
        {Impl::Mesa, CallLowering::Mesa, false},
        {Impl::Ifu, CallLowering::Direct, true},
        {Impl::Banked, CallLowering::Direct, true},
    };
}

inline LinkPlan
planFor(const EngineCombo &combo)
{
    LinkPlan plan;
    plan.lowering = combo.lowering;
    plan.shortCalls = combo.shortCalls;
    return plan;
}

inline MachineConfig
configFor(const EngineCombo &combo)
{
    MachineConfig config;
    config.impl = combo.impl;
    return config;
}

/** The host CPU's model name from /proc/cpuinfo ("unknown" when
 *  the file or the field is missing). */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

/**
 * The shared bench --json=<path> emitter ("fpc-bench-v1"): every bench
 * constructs one before benchmark::Initialize (which rejects unknown
 * flags), registers its paper-shape tables and headline metrics, and
 * calls write() before handing over to google-benchmark. Without
 * --json= it is inert. Every document records the host it came from
 * in its notes: nproc, CPU model, compiler, build type, and the git
 * SHA given with --git-sha= ("unknown" without it).
 */
class JsonReport
{
  public:
    /** Strips --json=<path> and --git-sha=<sha> out of argv so
     *  google-benchmark never sees them. */
    JsonReport(int &argc, char **argv, std::string bench_name)
        : bench_(std::move(bench_name))
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--json=", 0) == 0)
                path_ = arg.substr(7);
            else if (arg.rfind("--git-sha=", 0) == 0)
                gitSha_ = arg.substr(10);
            else
                argv[out++] = argv[i];
        }
        argc = out;
    }

    bool enabled() const { return !path_.empty(); }

    /** Record a printed stats::Table under a stable key. */
    void
    table(const std::string &key, const stats::Table &t)
    {
        if (!enabled())
            return;
        tables_.emplace_back(key, t);
    }

    void
    metric(const std::string &key, double v)
    {
        if (enabled())
            metrics_[key] = v;
    }

    void
    note(const std::string &key, const std::string &text)
    {
        if (enabled())
            notes_[key] = text;
    }

    /** Declare an absolute floor for a metric: tools/bench_diff.py
     *  fails any candidate whose value falls below it, whatever the
     *  baseline measured. */
    void
    gate(const std::string &metric_key, double min)
    {
        if (enabled())
            gates_[metric_key] = min;
    }

    /** Record a histogram's interpolated percentiles as metrics
     *  (<key>_p50 / _p90 / _p99). */
    void
    histogram(const std::string &key, const stats::Histogram &h)
    {
        metric(key + "_p50", h.p50());
        metric(key + "_p90", h.p90());
        metric(key + "_p99", h.p99());
    }

    /** Write the document; aborts the bench if the path is bad. */
    void
    write() const
    {
        if (!enabled())
            return;
        std::ofstream out(path_);
        if (!out) {
            std::cerr << bench_ << ": cannot write " << path_ << "\n";
            std::abort();
        }
        obs::JsonWriter w(out);
        w.beginObject();
        w.kv("schema", "fpc-bench-v1");
        w.kv("bench", bench_);
        w.key("tables").beginObject();
        for (const auto &[key, t] : tables_) {
            w.key(key).beginObject();
            w.key("headers").beginArray();
            for (const std::string &h : t.headers())
                w.value(h);
            w.endArray();
            w.key("rows").beginArray();
            for (const auto &row : t.cells()) {
                w.beginArray();
                for (const std::string &cell : row)
                    w.value(cell);
                w.endArray();
            }
            w.endArray();
            w.endObject();
        }
        w.endObject();
        w.key("metrics").beginObject();
        for (const auto &[key, v] : metrics_)
            w.kv(key, v);
        w.endObject();
        w.key("gates").beginObject();
        for (const auto &[key, min] : gates_) {
            w.key(key).beginObject();
            w.kv("min", min);
            w.endObject();
        }
        w.endObject();
        std::map<std::string, std::string> notes = notes_;
        notes.emplace("host_nproc",
                      std::to_string(std::thread::hardware_concurrency()));
        notes.emplace("host_cpu", cpuModel());
#if defined(__clang__)
        notes.emplace("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
        notes.emplace("compiler", "gcc " __VERSION__);
#else
        notes.emplace("compiler", "unknown");
#endif
        notes.emplace("build_type", FPC_BUILD_TYPE);
        notes.emplace("git_sha", gitSha_);
        w.key("notes").beginObject();
        for (const auto &[key, text] : notes)
            w.kv(key, text);
        w.endObject();
        w.endObject();
        out << "\n";
    }

  private:
    std::string bench_;
    std::string path_;
    std::string gitSha_ = "unknown";
    std::map<std::string, double> gates_;
    std::vector<std::pair<std::string, stats::Table>> tables_;
    std::map<std::string, double> metrics_;
    std::map<std::string, std::string> notes_;
};

} // namespace fpc::bench

#endif // FPC_BENCH_BENCH_UTIL_HH
