/**
 * @file
 * Tests for the sampled profiler (obs/sampled_profile.hh) and the
 * machine's exact sampler multiplex it rides:
 *
 *  - zero slop — every fire lands on the first step boundary at or
 *    past its grid point, at the same cycle and instruction with
 *    acceleration off or on, on all four engines;
 *  - the validation harness: sampled cycle shares on a deterministic
 *    call-heavy workload agree with the exact eager profiler's
 *    exclusive shares within tolerance, and the folded profile is
 *    byte-identical across the acceleration switch;
 *  - attaching a sampler does not perturb a single simulated number
 *    (the accel invariance contract extends to observation);
 *  - several samplers on one machine each keep their own grid, and
 *    a telemetry series is unchanged by a profiler beside it;
 *  - the SampledProfile container.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/json.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "obs/telemetry.hh"
#include "program/loader.hh"

using namespace fpc;

namespace
{

/** Call-heavy, deterministic: isPrime dominates, with main's loop a
 *  solid second — two procedures with stable, well-separated shares. */
const char *kPrimes = R"(
    module Main;
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
)";

enum class Mode
{
    Off,
    On,
};

const char *
modeName(Mode mode)
{
    return mode == Mode::Off ? "off" : "on";
}

struct Rig
{
    std::unique_ptr<Memory> mem;
    LoadedImage image;
    std::unique_ptr<Machine> machine;

    explicit Rig(const std::string &source, MachineConfig config = {},
                 LinkPlan plan = {})
    {
        const auto modules = lang::compile(source);
        const SystemLayout layout;
        mem = std::make_unique<Memory>(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        for (const auto &m : modules)
            loader.add(m);
        image = loader.load(*mem, plan);
        machine = std::make_unique<Machine>(*mem, image, config);
    }
};

MachineConfig
configFor(Impl impl, Mode mode)
{
    MachineConfig config;
    config.impl = impl;
    config.accel.enabled = mode != Mode::Off;
    return config;
}

Word
runMain(Rig &rig, Word arg)
{
    const std::vector<Word> args = {arg};
    rig.machine->start("Main", "main", args);
    const RunResult result = rig.machine->run();
    EXPECT_EQ(result.reason, StopReason::TopReturn) << result.message;
    return rig.machine->popValue();
}

/** One fire: the cycle count and the instruction that crossed the
 *  point. */
struct Fire
{
    Tick cycles;
    CodeByteAddr inst;
    bool operator==(const Fire &) const = default;
};

/** Records every fire. */
struct RecordingSampler : CycleSampler
{
    std::vector<Fire> fires;

    void
    onSample(const Machine &machine) override
    {
        fires.push_back({machine.stats().cycles, machine.lastInstStart()});
    }
};

const struct
{
    Impl impl;
    CallLowering lowering;
} kEngines[] = {
    {Impl::Simple, CallLowering::Fat},
    {Impl::Mesa, CallLowering::Mesa},
    {Impl::Ifu, CallLowering::Direct},
    {Impl::Banked, CallLowering::Direct},
};

/** The cycle counts of every step boundary of an unobserved eager run
 *  of main(arg), starting with the one before the first step. */
std::vector<Tick>
stepBoundaries(Impl impl, CallLowering lowering, Word arg)
{
    LinkPlan plan;
    plan.lowering = lowering;
    Rig rig(kPrimes, configFor(impl, Mode::Off), plan);
    const std::vector<Word> args = {arg};
    rig.machine->start("Main", "main", args);
    std::vector<Tick> out = {rig.machine->stats().cycles};
    while (!rig.machine->stopped()) {
        rig.machine->step();
        out.push_back(rig.machine->stats().cycles);
    }
    return out;
}

/** The cycles a sampler attached at cycle 0 on an interval grid must
 *  fire at: the first step boundary at or past each grid point, one
 *  fire per boundary (catch-up past multi-cycle steps). */
std::vector<Tick>
expectedFires(const std::vector<Tick> &boundaries, Tick interval)
{
    std::vector<Tick> out;
    Tick nextAt = interval;
    for (const Tick cycles : boundaries) {
        if (cycles < nextAt)
            continue;
        out.push_back(cycles);
        do
            nextAt += interval;
        while (nextAt <= cycles);
    }
    return out;
}

std::vector<Tick>
cyclesOf(const std::vector<Fire> &fires)
{
    std::vector<Tick> out;
    for (const Fire &f : fires)
        out.push_back(f.cycles);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Zero slop
// ---------------------------------------------------------------------

TEST(BoundarySampling, SlopBoundedOnEveryEngineAndBackend)
{
    // The one sampler has no slop: with acceleration off or on, every
    // fire is the first step boundary at or past its grid point, and
    // both backends see the same instruction cross it.
    constexpr Tick interval = 1000;
    constexpr Word arg = 300;
    for (const auto &combo : kEngines) {
        const std::vector<Tick> want = expectedFires(
            stepBoundaries(combo.impl, combo.lowering, arg), interval);
        ASSERT_GT(want.size(), 10u) << implName(combo.impl);

        std::vector<Fire> offFires;
        for (Mode mode : {Mode::Off, Mode::On}) {
            const std::string tag = std::string(implName(combo.impl)) +
                                    "/" + modeName(mode);
            LinkPlan plan;
            plan.lowering = combo.lowering;
            Rig rig(kPrimes, configFor(combo.impl, mode), plan);
            RecordingSampler rec;
            rig.machine->setSampler(&rec, interval);
            runMain(rig, arg);

            EXPECT_EQ(cyclesOf(rec.fires), want) << tag;
            if (mode == Mode::Off) {
                offFires = rec.fires;
            } else {
                EXPECT_EQ(rec.fires, offFires) << tag;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sampled-vs-exact validation harness
// ---------------------------------------------------------------------

TEST(SampledProfiler, AgreesWithExactProfilerOnThreaded)
{
    constexpr Word limit = 4000;
    constexpr Tick interval = 491; // prime: avoids loop aliasing

    // Exact baseline: eager loop, XFER-observer profiler.
    Rig exactRig(kPrimes);
    obs::Profiler exact(exactRig.image);
    exactRig.machine->setObserver(&exact);
    const Word exactValue = runMain(exactRig, limit);
    const obs::ProfileData exactData =
        exact.finish(exactRig.machine->stats().cycles);
    ASSERT_GT(exactData.total, 0);

    std::string onFolded;
    for (Mode mode : {Mode::On, Mode::Off}) {
        Rig rig(kPrimes, configFor(Impl::Banked, mode));
        obs::SampledProfiler sampler(rig.image);
        rig.machine->addSampler(&sampler, interval);
        EXPECT_EQ(runMain(rig, limit), exactValue) << modeName(mode);
        const obs::SampledProfile profile = sampler.finish();
        ASSERT_GT(profile.total, 100) << modeName(mode);
        EXPECT_EQ(profile.dropped, 0u) << modeName(mode);

        // Exact sample points: the folded profile is byte-identical
        // across the acceleration switch.
        std::ostringstream folded;
        profile.writeFolded(folded);
        if (mode == Mode::On) {
            onFolded = folded.str();
        } else {
            EXPECT_EQ(folded.str(), onFolded);
        }

        // Every procedure with a non-trivial exact share must appear
        // in the sampled profile with a share within 5 points.
        for (const auto &[name, pp] : exactData.procs) {
            const double exactShare =
                static_cast<double>(pp.exclusive) /
                static_cast<double>(exactData.total);
            if (exactShare < 0.02)
                continue;
            const double sampledShare = profile.share(name);
            EXPECT_NEAR(sampledShare, exactShare, 0.05)
                << modeName(mode) << " " << name;
        }
    }
}

// ---------------------------------------------------------------------
// Observation must not perturb simulated numbers
// ---------------------------------------------------------------------

TEST(BoundarySampling, DoesNotPerturbSimulatedStats)
{
    const auto statsJson = [](Rig &rig) {
        std::ostringstream os;
        obs::StatsExport exp;
        exp.driver = "test_sampled";
        exp.impl = implName(rig.machine->config().impl);
        exp.stopReason = stopReasonName(StopReason::TopReturn);
        exp.machine = &rig.machine->stats();
        exp.memory = rig.mem.get();
        exp.heap = &rig.machine->heap().stats();
        exp.cache = rig.machine->dataCache();
        obs::writeStatsJson(os, exp);
        return os.str();
    };

    for (Mode mode : {Mode::Off, Mode::On}) {
        Rig bare(kPrimes, configFor(Impl::Banked, mode));
        const Word bareValue = runMain(bare, 200);
        const std::string bareJson = statsJson(bare);

        Rig observed(kPrimes, configFor(Impl::Banked, mode));
        obs::SampledProfiler sampler(observed.image);
        observed.machine->addSampler(&sampler, 997);
        EXPECT_EQ(runMain(observed, 200), bareValue) << modeName(mode);
        EXPECT_GT(sampler.recorded(), 0u) << modeName(mode);
        EXPECT_EQ(statsJson(observed), bareJson) << modeName(mode);
    }
}

// ---------------------------------------------------------------------
// SampledProfile container
// ---------------------------------------------------------------------

TEST(SampledProfile, MergeShareAndFolded)
{
    obs::SampledProfile a;
    a.samples["Main.f"] = 30;
    a.samples["Main.g"] = 10;
    a.total = 40;
    a.recorded = 40;

    obs::SampledProfile b;
    b.samples["Main.g"] = 10;
    b.samples["Main.h"] = 10;
    b.total = 20;
    b.recorded = 25;
    b.dropped = 5;

    a.merge(b);
    EXPECT_EQ(a.total, 60);
    EXPECT_EQ(a.recorded, 65);
    EXPECT_EQ(a.dropped, 5);
    EXPECT_DOUBLE_EQ(a.share("Main.f"), 0.5);
    EXPECT_DOUBLE_EQ(a.share("Main.g"), 20.0 / 60.0);
    EXPECT_DOUBLE_EQ(a.share("absent"), 0.0);

    std::ostringstream os;
    a.writeFolded(os);
    EXPECT_EQ(os.str(), "Main.f 30\nMain.g 20\nMain.h 10\n");
}

TEST(SampledProfiler, RingDropsOldestBeyondCapacity)
{
    Rig rig(kPrimes, configFor(Impl::Banked, Mode::On));
    obs::SampledProfiler sampler(rig.image, /*capacity=*/8);
    rig.machine->setSampler(&sampler, 500);
    runMain(rig, 300);

    ASSERT_GT(sampler.recorded(), 8u);
    EXPECT_EQ(sampler.dropped(), sampler.recorded() - 8u);
    const CountT recorded = sampler.recorded();
    const obs::SampledProfile profile = sampler.finish();
    EXPECT_EQ(profile.total, 8); // ring retains exactly its capacity
    EXPECT_EQ(profile.recorded, recorded);
    // finish() resets: a second finish sees an empty profiler.
    const obs::SampledProfile empty = sampler.finish();
    EXPECT_EQ(empty.total, 0);
    EXPECT_EQ(empty.recorded, 0);
}

// ---------------------------------------------------------------------
// Several samplers on one machine
// ---------------------------------------------------------------------

TEST(BoundaryFanout, FinestIntervalDrivesCoarserTargets)
{
    // Two samplers at coprime intervals fire at exactly the cycles
    // each fires at alone, on every engine and both backends.
    constexpr Tick fineEvery = 997;
    constexpr Tick coarseEvery = 1000;
    for (const auto &combo : kEngines) {
        for (Mode mode : {Mode::Off, Mode::On}) {
            const std::string tag = std::string(implName(combo.impl)) +
                                    "/" + modeName(mode);
            LinkPlan plan;
            plan.lowering = combo.lowering;
            const auto alone = [&](Tick interval) {
                Rig rig(kPrimes, configFor(combo.impl, mode), plan);
                RecordingSampler rec;
                rig.machine->setSampler(&rec, interval);
                runMain(rig, 300);
                return rec.fires;
            };

            Rig rig(kPrimes, configFor(combo.impl, mode), plan);
            RecordingSampler fine;
            RecordingSampler coarse;
            rig.machine->addSampler(&fine, fineEvery);
            rig.machine->addSampler(&coarse, coarseEvery);
            runMain(rig, 300);

            ASSERT_GT(fine.fires.size(), 10u) << tag;
            EXPECT_EQ(fine.fires, alone(fineEvery)) << tag;
            EXPECT_EQ(coarse.fires, alone(coarseEvery)) << tag;
        }
    }
}

TEST(SamplerMultiplex, TelemetryUnchangedByProfilerBeside)
{
    // The fpc-metrics-v1 series is byte-identical with and without a
    // sampled profiler on another interval, on every engine and
    // backend, and across the acceleration switch.
    const auto metricsJson = [](const obs::Telemetry &telemetry,
                                Impl impl) {
        std::ostringstream os;
        obs::MetricsExport meta;
        meta.driver = "test_sampled";
        meta.impl = implName(impl);
        meta.interval = 1000;
        obs::writeMetricsJson(os, meta, telemetry);
        return os.str();
    };
    for (const auto &combo : kEngines) {
        LinkPlan plan;
        plan.lowering = combo.lowering;
        std::string reference;
        for (Mode mode : {Mode::Off, Mode::On}) {
            for (bool withProfiler : {false, true}) {
                const std::string tag =
                    std::string(implName(combo.impl)) + "/" +
                    modeName(mode) + (withProfiler ? "/profiled" : "");
                Rig rig(kPrimes, configFor(combo.impl, mode), plan);
                obs::Telemetry telemetry;
                obs::SampledProfiler profiler(rig.image);
                rig.machine->addSampler(&telemetry, 1000);
                if (withProfiler)
                    rig.machine->addSampler(&profiler, 491);
                runMain(rig, 300);
                if (withProfiler) {
                    EXPECT_GT(profiler.recorded(), 0u) << tag;
                }
                const std::string json =
                    metricsJson(telemetry, combo.impl);
                if (reference.empty()) {
                    reference = json;
                } else {
                    EXPECT_EQ(json, reference) << tag;
                }
            }
        }
    }
}
