/**
 * @file
 * Experiment C9 — host-side execution throughput.
 *
 * Unlike C1–C8, which report *simulated* costs (cycles, storage
 * references), C9 measures the wall-clock speed of the simulator
 * itself: simulated instructions per second and XFERs per second for
 * each engine I1–I4, on the two host backends — the eager loop
 * (accel=off) and the threaded-code superblock interpreter over the
 * predecoded icache + XFER link caches (accel=on,
 * docs/PERFORMANCE.md). The acceleration contract makes this a pure
 * host experiment: every simulated number is bit-identical in both
 * modes, so the speedup column is free — no accuracy was traded for
 * it.
 *
 * The workload is C1's call-heavy primes program, the shape the paper
 * optimizes for (a call per loop iteration), so the XFER link cache,
 * the superblock chain, and the icache are all on the hot path. Host
 * times are min-of-N (--repeat=N, default 3) over interleaved
 * off/on repetitions: interference only ever adds time, so
 * the fastest repetition estimates the undisturbed cost, and
 * interleaving keeps a noise burst from landing on only one side of a
 * ratio.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <vector>

#include "bench_util.hh"
#include "obs/probes.hh"
#include "obs/sampled_profile.hh"
#include "obs/telemetry.hh"

using namespace fpc;
using namespace fpc::bench;

namespace
{

constexpr Word primesLimit = 2000;

/** The two host execution backends (same simulated numbers). */
enum class Backend
{
    Off, ///< eager per-step loop
    On,  ///< computed-goto superblocks, icache + link caches
};

constexpr std::array<Backend, 2> allBackends = {Backend::Off,
                                                Backend::On};

const char *
backendName(Backend backend)
{
    return backend == Backend::Off ? "off" : "on";
}

struct Measurement
{
    double seconds = 0;      ///< min-of-N wall time of one run
    std::uint64_t steps = 0; ///< simulated instructions per run
    CountT xfers = 0;        ///< transfers per run
    AccelStats accel;        ///< steady-state cache counters
};

/** One warmed, stats-reset rig ready for timed runs. */
std::unique_ptr<Rig>
warmRig(const EngineCombo &combo, Backend backend)
{
    MachineConfig config = configFor(combo);
    config.accel.enabled = backend != Backend::Off;
    auto rig = std::make_unique<Rig>(primesProgram(), planFor(combo),
                                     config);
    // Warm run: fills the frame free lists and the host caches, then
    // reset so the measured runs (and their hit rates) are steady
    // state.
    runToResult(*rig->machine, "Primes", "main", {primesLimit});
    rig->machine->resetStats();
    rig->machine->heap().resetStats();
    rig->mem->resetStats();
    return rig;
}

/**
 * Measure both backends together, interleaving the timed repetitions
 * (off, on, off, on, ...). Host interference
 * comes in bursts that last longer than one repetition, so timing
 * all-off then all-on lets a burst land on one side only and skew the
 * ratio; adjacent samples see the same conditions, and min-of-N then
 * picks every side's quiet-window cost.
 */
std::array<Measurement, 2>
measureBackends(const EngineCombo &combo, unsigned repeat)
{
    std::array<std::unique_ptr<Rig>, 2> rigs;
    std::array<Measurement, 2> m;
    for (std::size_t i = 0; i < allBackends.size(); ++i) {
        rigs[i] = warmRig(combo, allBackends[i]);
        // One counted run for the per-run denominators (deterministic,
        // so any run's counts serve for every repetition).
        runToResult(*rigs[i]->machine, "Primes", "main", {primesLimit});
        m[i].steps = rigs[i]->machine->stats().steps;
        m[i].xfers = rigs[i]->machine->stats().totalXfers();
    }

    using clock = std::chrono::steady_clock;
    auto timedRun = [](Rig &rig) {
        const auto t0 = clock::now();
        runToResult(*rig.machine, "Primes", "main", {primesLimit});
        const std::chrono::duration<double> dt = clock::now() - t0;
        return dt.count();
    };
    if (repeat == 0)
        repeat = 1;
    for (unsigned r = 0; r < repeat; ++r) {
        for (std::size_t i = 0; i < rigs.size(); ++i) {
            const double t = timedRun(*rigs[i]);
            if (r == 0 || t < m[i].seconds)
                m[i].seconds = t;
        }
    }
    for (std::size_t i = 0; i < rigs.size(); ++i)
        m[i].accel = rigs[i]->machine->accelStats();
    return m;
}

void
printHostThroughput(unsigned repeat, JsonReport &json)
{
    std::cout << "Host execution throughput on the C1 call-heavy "
                 "workload (primes " << primesLimit << "), min of "
              << repeat << " runs:\n\n";
    stats::Table table({"impl", "accel", "wall ms", "sim Minst/s",
                        "XFER/s", "speedup", "icache hit",
                        "link hit"});
    stats::Table dispatch({"impl", "eager ns/inst", "threaded ns/inst"});
    stats::Table sblocks({"impl", "builds", "execs", "chain hits",
                          "chain rate"});

    double min_speedup = 0;
    bool first = true;
    for (const EngineCombo &combo : allEngines()) {
        const auto m = measureBackends(combo, repeat);
        const Measurement &off = m[0];
        const Measurement &on = m[1];
        const double speedup = off.seconds / on.seconds;

        table.row(implName(combo.impl), "off",
                  stats::fixed(off.seconds * 1e3, 2),
                  stats::fixed(off.steps / off.seconds / 1e6, 1),
                  stats::fixed(off.xfers / off.seconds, 0), "-", "-",
                  "-");
        table.row(implName(combo.impl), "on",
                  stats::fixed(on.seconds * 1e3, 2),
                  stats::fixed(on.steps / on.seconds / 1e6, 1),
                  stats::fixed(on.xfers / on.seconds, 0),
                  stats::fixed(speedup, 2),
                  stats::percent(on.accel.icacheHitRate()),
                  stats::percent(on.accel.linkHitRate()));

        // Dispatch cost: the per-instruction host price of each loop.
        dispatch.row(implName(combo.impl),
                     stats::fixed(off.seconds / off.steps * 1e9, 2),
                     stats::fixed(on.seconds / on.steps * 1e9, 2));

        const AccelStats &ta = on.accel;
        const double chain_rate =
            ta.sblockExecs > 0
                ? static_cast<double>(ta.sblockChainHits) /
                      ta.sblockExecs
                : 0.0;
        sblocks.row(implName(combo.impl), ta.sblockBuilds,
                    ta.sblockExecs, ta.sblockChainHits,
                    stats::percent(chain_rate));

        const std::string impl = implName(combo.impl);
        json.metric("speedup_" + impl, speedup);
        json.metric("sim_mips_off_" + impl,
                    off.steps / off.seconds / 1e6);
        json.metric("sim_mips_threaded_" + impl,
                    on.steps / on.seconds / 1e6);
        json.metric("xfers_per_sec_on_" + impl, on.xfers / on.seconds);
        json.metric("icache_hit_rate_" + impl,
                    on.accel.icacheHitRate());
        json.metric("link_hit_rate_" + impl, on.accel.linkHitRate());
        json.metric("sblock_chain_rate_" + impl, chain_rate);
        if (first || speedup < min_speedup)
            min_speedup = speedup;
        first = false;
    }
    table.print(std::cout);
    std::cout << "\nDispatch cost (host ns per simulated "
                 "instruction):\n\n";
    dispatch.print(std::cout);
    std::cout << "\nSuperblock cache at steady state:\n\n";
    sblocks.print(std::cout);
    json.table("host_throughput", table);
    json.table("dispatch_cost", dispatch);
    json.table("superblocks", sblocks);
    json.metric("min_speedup", min_speedup);
    json.metric("repeat", repeat);
    json.note("contract",
              "simulated numbers are bit-identical with accel "
              "off/on; these tables are host wall-clock only");

    std::cout << "\nAcceptance shape: accel-on >= 4x accel-off on "
                 "every engine, with icache, link-cache, and "
                 "superblock-chain hit rates above 90% at steady "
                 "state.\n";
}

/** Median of the values (mean of the middle pair when even). */
double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

/** The three observability states the obs_overhead table compares on
 *  the threaded backend. */
enum class ObsState
{
    Unobserved, ///< no observer at all
    Sampled,    ///< sampled profiler + telemetry on the exact sampler
    Exact,      ///< telemetry alone on the exact sampler
};

constexpr std::array<ObsState, 3> allObsStates = {
    ObsState::Unobserved, ObsState::Sampled, ObsState::Exact};

/**
 * Observability overhead: wall time of the threaded backend with no
 * observer, with full sampled observability (the sampled profiler and
 * telemetry added to the machine's exact sampler on their default
 * grids, 9973 and Telemetry::defaultInterval cycles, as
 * fpcvm --profile-sampled --metrics-out attaches them), and with
 * telemetry alone on its default grid. The threaded loop serves
 * every sampler through its per-block deadline: superblocks between
 * sample points, exact steps in the block that crosses one. The
 * states run back to back within each repetition, and a retention is
 * the median over repetitions of that repetition's ratio, so a host
 * speed phase cannot land on one side of a ratio only; the ms columns
 * are min-of-N.
 */
void
printObsOverhead(unsigned repeat, JsonReport &json)
{
    std::cout << "\nObservability overhead on the threaded backend "
                 "(primes " << primesLimit << "), min of " << repeat
              << " runs, retention the median of per-run ratios:\n\n";
    stats::Table table({"impl", "unobserved ms", "sampled ms",
                        "exact ms", "sampled retention",
                        "exact retention"});

    constexpr Tick profileInterval = 9973; ///< --sample-interval default
    double min_retention = 0;
    double min_exact_retention = 0;
    bool first = true;
    for (const EngineCombo &combo : allEngines()) {
        // A single primes run is sub-millisecond, where host cache
        // and layout luck swamp the few-percent effect under
        // measurement; five back-to-back runs per timed repetition
        // integrate it out. Rigs are rebuilt every repetition —
        // allocation layout luck sticks to a rig for its whole life,
        // so reusing one rig across repetitions would bake a bad
        // placement into every sample and min-of-N could not shed it.
        constexpr unsigned innerReps = 5;
        using clock = std::chrono::steady_clock;
        std::array<double, 3> secs{};
        std::array<std::vector<double>, 2> ratios;
        if (repeat == 0)
            repeat = 1;
        for (unsigned r = 0; r < repeat; ++r) {
            std::array<double, 3> t{};
            for (std::size_t i = 0; i < allObsStates.size(); ++i) {
                // Every state runs the threaded backend; the exact
                // sampler's cost is the deadline's eager steps around
                // each sample point plus the samples themselves.
                MachineConfig config = configFor(combo);
                config.accel.enabled = true;
                Rig rig(primesProgram(), planFor(combo), config);
                std::optional<obs::SampledProfiler> profiler;
                std::optional<obs::Telemetry> telemetry;
                if (allObsStates[i] != ObsState::Unobserved) {
                    telemetry.emplace();
                    rig.machine->addSampler(
                        &*telemetry, obs::Telemetry::defaultInterval);
                }
                if (allObsStates[i] == ObsState::Sampled) {
                    profiler.emplace(rig.image);
                    rig.machine->addSampler(&*profiler,
                                            profileInterval);
                }
                // Warm run: frame free lists + host caches.
                runToResult(*rig.machine, "Primes", "main",
                            {primesLimit});
                const auto t0 = clock::now();
                for (unsigned k = 0; k < innerReps; ++k)
                    runToResult(*rig.machine, "Primes", "main",
                                {primesLimit});
                const std::chrono::duration<double> dt =
                    clock::now() - t0;
                t[i] = dt.count();
                if (r == 0 || t[i] < secs[i])
                    secs[i] = t[i];
            }
            ratios[0].push_back(t[0] / t[1]);
            ratios[1].push_back(t[0] / t[2]);
        }

        const double sampled_retention = median(ratios[0]);
        const double exact_retention = median(ratios[1]);
        table.row(implName(combo.impl),
                  stats::fixed(secs[0] * 1e3, 2),
                  stats::fixed(secs[1] * 1e3, 2),
                  stats::fixed(secs[2] * 1e3, 2),
                  stats::percent(sampled_retention),
                  stats::percent(exact_retention));

        const std::string impl = implName(combo.impl);
        json.metric("sampled_retention_" + impl, sampled_retention);
        json.metric("exact_retention_" + impl, exact_retention);
        if (first || sampled_retention < min_retention)
            min_retention = sampled_retention;
        if (first || exact_retention < min_exact_retention)
            min_exact_retention = exact_retention;
        first = false;
    }
    table.print(std::cout);
    json.table("obs_overhead", table);
    json.metric("min_sampled_retention", min_retention);
    json.metric("min_exact_retention", min_exact_retention);
    json.gate("min_exact_retention", 0.8);

    std::cout << "\nAcceptance shape: full sampled observability "
                 "(--profile-sampled --metrics-out: the profiler "
                 "every "
              << profileInterval << " cycles and telemetry every "
              << obs::Telemetry::defaultInterval
              << ", two grids on the one exact sampler) retains "
                 ">= 90% of unobserved threaded throughput, and "
                 "telemetry alone >= 80%.\n";
}

/** The probe states the probe_overhead table compares on the
 *  threaded backend. */
enum class ProbeState
{
    Unprobed, ///< no probe sink at all
    Probed,   ///< one hot procedure probed (selective deopt)
    AllProbed ///< every procedure probed (upper bound on the cost)
};

constexpr std::array<ProbeState, 3> allProbeStates = {
    ProbeState::Unprobed, ProbeState::Probed, ProbeState::AllProbed};

/** A workload where instruction volume and call frequency separate:
 *  kernel() holds ~95% of the instructions, tick() is called every
 *  outer iteration (a hot probe target) but is three instructions
 *  long. Probing tick() deopts only tick's superblocks, so the
 *  retention column prices exactly what selective deopt promises:
 *  unprobed code keeps threaded speed. */
inline std::vector<Module>
probeWorkload()
{
    return lang::compile(R"(
        module Work;
        var acc;
        proc kernel(n) {
            var i;
            i = 0;
            while (i < n) {
                acc = acc + i;
                i = i + 1;
            }
            return acc;
        }
        proc tick(x) { return x + 1; }
        proc main(reps) {
            var r;
            r = 0;
            while (r < reps) {
                acc = kernel(400);
                acc = tick(acc);
                r = r + 1;
            }
            return acc;
        }
    )");
}

/**
 * Probe overhead: wall time of the threaded backend with no probes,
 * with one hot procedure probed ('entry:Work.tick ->
 * quantize(cycles)' — only tick's superblocks deopt to the eager
 * path), and with every procedure probed (the upper bound selective
 * deopt avoids). Probes charge zero simulated cycles; this table is
 * the host-side price. Same rebuilt-rig, interleaved discipline as
 * the obs_overhead table: min-of-N ms, median per-run retention.
 */
void
printProbeOverhead(unsigned repeat, JsonReport &json)
{
    constexpr Word workReps = 600;
    std::cout << "\nDynamic-probe overhead on the threaded backend "
                 "(kernel-heavy workload, tick() probed), min of "
              << repeat
              << " runs, retention the median of per-run ratios:\n\n";
    stats::Table table({"impl", "unprobed ms", "probed ms",
                        "all-probed ms", "retention",
                        "all-probed retention"});

    obs::ProbeRegistry hotRegistry;
    obs::ProbeRegistry allRegistry;
    {
        std::string err;
        if (!obs::attachProbeSpecs(
                hotRegistry,
                {"entry:Work.tick -> quantize(cycles)"}, err) ||
            !obs::attachProbeSpecs(
                allRegistry, {"entry:Work.* -> quantize(cycles)"},
                err))
            throw std::runtime_error("probe spec: " + err);
    }

    double min_retention = 0;
    bool first = true;
    for (const EngineCombo &combo : allEngines()) {
        constexpr unsigned innerReps = 5;
        using clock = std::chrono::steady_clock;
        std::array<double, 3> secs{};
        std::array<std::vector<double>, 2> ratios;
        if (repeat == 0)
            repeat = 1;
        for (unsigned r = 0; r < repeat; ++r) {
            std::array<double, 3> t{};
            for (std::size_t i = 0; i < allProbeStates.size(); ++i) {
                MachineConfig config = configFor(combo);
                config.accel.enabled = true;
                Rig rig(probeWorkload(), planFor(combo), config);
                obs::ProbeRegistry *registry = nullptr;
                switch (allProbeStates[i]) {
                  case ProbeState::Unprobed:
                    break;
                  case ProbeState::Probed:
                    registry = &hotRegistry;
                    break;
                  case ProbeState::AllProbed:
                    registry = &allRegistry;
                    break;
                }
                std::optional<obs::ProbeEngine> engine;
                if (registry != nullptr) {
                    engine.emplace(registry->snapshot(), rig.image,
                                   "", 0);
                    rig.machine->setProbeSink(&*engine,
                                              engine->armedRanges());
                }
                // Warm run: frame free lists + host caches (the
                // armed superblock set reaches steady state here).
                runToResult(*rig.machine, "Work", "main", {workReps});
                const auto t0 = clock::now();
                for (unsigned k = 0; k < innerReps; ++k)
                    runToResult(*rig.machine, "Work", "main",
                                {workReps});
                const std::chrono::duration<double> dt =
                    clock::now() - t0;
                t[i] = dt.count();
                if (r == 0 || t[i] < secs[i])
                    secs[i] = t[i];
            }
            ratios[0].push_back(t[0] / t[1]);
            ratios[1].push_back(t[0] / t[2]);
        }

        const double retention = median(ratios[0]);
        const double all_retention = median(ratios[1]);
        table.row(implName(combo.impl),
                  stats::fixed(secs[0] * 1e3, 2),
                  stats::fixed(secs[1] * 1e3, 2),
                  stats::fixed(secs[2] * 1e3, 2),
                  stats::percent(retention),
                  stats::percent(all_retention));

        const std::string impl = implName(combo.impl);
        json.metric("probe_retention_" + impl, retention);
        json.metric("all_probed_retention_" + impl, all_retention);
        if (first || retention < min_retention)
            min_retention = retention;
        first = false;
    }
    table.print(std::cout);
    json.table("probe_overhead", table);
    json.metric("min_probe_retention", min_retention);

    std::cout << "\nAcceptance shape: with one hot procedure probed, "
                 "unprobed code retains >= 90% of unprobed threaded "
                 "throughput (selective deopt); probing every "
                 "procedure prices what that selectivity avoids.\n";
}

void
BM_HostPrimes(benchmark::State &state)
{
    const EngineCombo combo = allEngines()[3]; // I4-banked
    const auto backend = static_cast<Backend>(state.range(0));
    MachineConfig config = configFor(combo);
    config.accel.enabled = backend != Backend::Off;
    Rig rig(primesProgram(), planFor(combo), config);
    for (auto _ : state)
        runToResult(*rig.machine, "Primes", "main", {200});
    state.SetLabel(std::string("accel-") + backendName(backend));
}
BENCHMARK(BM_HostPrimes)->DenseRange(0, 1);

} // namespace

int
main(int argc, char **argv)
try {
    JsonReport json(argc, argv, "c9_host_mips");
    const unsigned repeat = stripUintFlag(argc, argv, "repeat", 3);

    printHostThroughput(repeat, json);
    printObsOverhead(repeat, json);
    printProbeOverhead(repeat, json);
    json.write();
    std::cout << "\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
} catch (const std::exception &err) {
    std::cerr << "c9_host_mips: bad flag value (" << err.what()
              << "); expected --repeat=N\n";
    return 2;
}
