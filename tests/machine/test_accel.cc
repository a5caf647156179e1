/**
 * @file
 * Host-acceleration tests (docs/PERFORMANCE.md): the invariance
 * contract — every simulated number is bit-identical with
 * acceleration on or off — plus the invalidation hooks (code patches,
 * relocation) and the steady-state hit rates the C9 benchmark relies
 * on.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "asm/builder.hh"
#include "common/logging.hh"
#include "machine/machine.hh"
#include "obs/json.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "program/relocate.hh"

namespace fpc
{
namespace
{

/** The two host execution backends under test. */
enum class Mode
{
    Off, ///< eager per-step loop, the reference
    On,  ///< computed-goto superblocks
};

void
applyMode(MachineConfig &config, Mode mode)
{
    config.accel.enabled = mode != Mode::Off;
}

/** A call-heavy program: main loops n times, each iteration calling
 *  bump(acc) = acc + 77 through a local call. */
Module
callLoopModule()
{
    ModuleBuilder b("M");
    auto &bump = b.proc("bump", 1, 1);
    bump.loadLocal(0).loadImm(77).op(isa::Op::ADD).ret();

    auto &main = b.proc("main", 1, 2);
    auto loop = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(1).callLocal("bump").storeLocal(1);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).ret();
    return b.build();
}

/** A branch-heavy variant: each iteration compares the counter
 *  against a threshold and only calls bump below it, so compare +
 *  conditional-branch pairs (the threaded backend's fused CMPBR
 *  superinstruction) run hot in both directions, and the taken side
 *  leads straight into a call — on the banked engine the stack bank
 *  holding the compare's transient boolean gets renamed into the
 *  callee's frame bank, which is exactly the path where a fused
 *  compare that skipped the boolean's slot write would leak a wrong
 *  dirty word into a later flush. */
Module
compareLoopModule()
{
    ModuleBuilder b("M");
    auto &bump = b.proc("bump", 1, 1);
    bump.loadLocal(0).loadImm(77).op(isa::Op::ADD).ret();

    auto &main = b.proc("main", 1, 2);
    auto loop = main.newLabel();
    auto skip = main.newLabel();
    auto next = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(0).loadImm(100).op(isa::Op::LT).jumpZero(skip);
    main.loadLocal(1).callLocal("bump").storeLocal(1);
    main.jump(next);
    main.label(skip);
    main.label(next);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).ret();
    return b.build();
}

/** A loop whose callee takes the address of a local (LLA: on I4 this
 *  drops the local bank, the costliest straight-line instruction),
 *  stores and loads through the pointer, and bumps a global, so the
 *  threaded backend's per-block cycle ceilings see every kind of
 *  straight-line storage reference. */
Module
pointerLoopModule()
{
    ModuleBuilder b("M");
    b.globals(1);
    auto &bump = b.proc("bump", 1, 2);
    bump.loadLocal(0).loadLocalAddr(1).op(isa::Op::WR);
    bump.loadLocalAddr(1).op(isa::Op::RD).loadImm(77).op(isa::Op::ADD);
    bump.loadGlobal(0).loadImm(1).op(isa::Op::ADD).storeGlobal(0);
    bump.ret();

    auto &main = b.proc("main", 1, 2);
    auto loop = main.newLabel();
    auto skip = main.newLabel();
    auto done = main.newLabel();
    main.loadImm(0).storeLocal(1);
    main.label(loop);
    main.loadLocal(0).jumpZero(done);
    main.loadLocal(0).loadImm(3).op(isa::Op::MOD).jumpZero(skip);
    main.loadLocal(1).callLocal("bump").storeLocal(1);
    main.label(skip);
    main.loadLocal(0).loadImm(1).op(isa::Op::SUB).storeLocal(0);
    main.jump(loop);
    main.label(done);
    main.loadLocal(1).loadGlobal(0).op(isa::Op::ADD).ret();
    return b.build();
}

struct EngineCombo
{
    Impl impl;
    CallLowering lowering;
};

const EngineCombo combos[] = {
    {Impl::Simple, CallLowering::Fat},
    {Impl::Mesa, CallLowering::Mesa},
    {Impl::Ifu, CallLowering::Direct},
    {Impl::Banked, CallLowering::Direct},
};

struct RunOut
{
    Word value = 0;
    std::string statsJson;
    std::string traceJson;
    StopReason reason = StopReason::Running;
};

/** The full simulated-stats document of a finished run. */
std::string
statsJson(const Machine &machine, StopReason reason)
{
    std::ostringstream os;
    obs::StatsExport exp;
    exp.driver = "test_accel";
    exp.impl = implName(machine.config().impl);
    exp.stopReason = stopReasonName(reason);
    exp.machine = &machine.stats();
    exp.memory = &machine.memory();
    exp.heap = &machine.heap().stats();
    exp.cache = machine.dataCache();
    obs::writeStatsJson(os, exp);
    return os.str();
}

/** One complete run on a fresh memory/image; exports the full
 *  simulated-stats document (and optionally an XFER trace, which
 *  forces the eager per-step loop even with acceleration on). */
RunOut
runOnce(const EngineCombo &combo, Mode mode, Word n, bool with_trace,
        Module (*module)() = callLoopModule)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(module());
    LinkPlan plan;
    plan.lowering = combo.lowering;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = combo.impl;
    applyMode(config, mode);
    Machine machine(mem, image, config);

    obs::Tracer tracer;
    if (with_trace)
        machine.setObserver(&tracer);

    machine.start("M", "main", std::array<Word, 1>{n});
    RunOut out;
    out.reason = machine.run().reason;
    if (out.reason == StopReason::TopReturn)
        out.value = machine.popValue();

    out.statsJson = statsJson(machine, out.reason);

    if (with_trace) {
        std::ostringstream trace;
        obs::writeChromeTrace(trace, tracer);
        out.traceJson = trace.str();
    }
    return out;
}

// ---------------------------------------------------------------------
// The invariance contract
// ---------------------------------------------------------------------

TEST(AccelDeterminism, StatsJsonByteIdenticalOnEveryEngine)
{
    for (const EngineCombo &combo : combos) {
        const RunOut off = runOnce(combo, Mode::Off, 200, false);
        ASSERT_EQ(off.reason, StopReason::TopReturn)
            << implName(combo.impl);
        const RunOut out = runOnce(combo, Mode::On, 200, false);
        EXPECT_EQ(off.value, out.value) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, CompareBranchStatsIdenticalOnEveryEngine)
{
    // The compare-loop workload keeps the threaded backend's fused
    // compare+branch and load-pair superinstructions hot, with the
    // taken side calling through an XFER (the bank-rename path that
    // makes the compare's transient boolean slot write observable on
    // the banked engine).
    for (const EngineCombo &combo : combos) {
        const RunOut off =
            runOnce(combo, Mode::Off, 200, false, compareLoopModule);
        ASSERT_EQ(off.reason, StopReason::TopReturn)
            << implName(combo.impl);
        EXPECT_EQ(off.value, static_cast<Word>(99 * 77))
            << implName(combo.impl);
        const RunOut out =
            runOnce(combo, Mode::On, 200, false, compareLoopModule);
        EXPECT_EQ(off.value, out.value) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, TraceByteIdenticalWithObserverAttached)
{
    // An attached observer routes the accelerated machine through the
    // eager per-step loop; the XFER records' absolute cycle/step
    // stamps must come out identical.
    for (const EngineCombo &combo : combos) {
        const RunOut off = runOnce(combo, Mode::Off, 100, true);
        const RunOut out = runOnce(combo, Mode::On, 100, true);
        EXPECT_EQ(off.traceJson, out.traceJson) << implName(combo.impl);
        EXPECT_EQ(off.statsJson, out.statsJson) << implName(combo.impl);
    }
}

TEST(AccelDeterminism, ObserverForcesEagerUnderThreaded)
{
    // With an observer attached the threaded machine must not run a
    // single superblock: the eager loop is the only path that can
    // deliver per-XFER records with exact absolute stamps.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, Mode::On);
    Machine machine(mem, image, config);
    obs::Tracer tracer;
    machine.setObserver(&tracer);
    machine.start("M", "main", std::array<Word, 1>{Word{100}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.accelStats().sblockExecs, 0u);
    EXPECT_EQ(machine.accelStats().sblockBuilds, 0u);
}

/** A sampler that counts its sample points. */
struct CountingSampler : CycleSampler
{
    unsigned samples = 0;
    void onSample(const Machine &) override { ++samples; }
};

TEST(AccelDeterminism, SamplerKeepsThreadedFastPath)
{
    // A cycle sampler no longer demotes the threaded backend: blocks
    // run wherever the next sample point cannot fall inside them, and
    // the sample count and every simulated number match the
    // unaccelerated run.
    unsigned counts[2] = {0, 0};
    std::string json[2];
    const Mode modes[2] = {Mode::Off, Mode::On};
    for (int i = 0; i < 2; ++i) {
        const SystemLayout layout;
        Memory mem(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        loader.add(callLoopModule());
        const LoadedImage image = loader.load(mem, LinkPlan{});

        MachineConfig config;
        applyMode(config, modes[i]);
        Machine machine(mem, image, config);
        CountingSampler sampler;
        machine.setSampler(&sampler, 1000);
        machine.start("M", "main", std::array<Word, 1>{Word{100}});
        ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
        counts[i] = sampler.samples;
        if (modes[i] == Mode::On) {
            EXPECT_GT(machine.accelStats().sblockExecs, 0u);
        }
        json[i] = statsJson(machine, StopReason::TopReturn);
    }
    EXPECT_GT(counts[0], 0u);
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_EQ(json[0], json[1]);
}

TEST(AccelDeterminism, ThreadedFastPathActuallyEngages)
{
    // Sanity check on the force-eager test above: with no observer
    // attached the same workload does run through superblocks, so a
    // zero sblockExecs there means "fell back", not "never built".
    if (!threadedDispatchSupported())
        GTEST_SKIP() << "threaded backend not compiled in";
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, Mode::On);
    Machine machine(mem, image, config);
    EXPECT_TRUE(machine.threadedActive());
    machine.start("M", "main", std::array<Word, 1>{Word{100}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_GT(machine.accelStats().sblockBuilds, 0u);
    EXPECT_GT(machine.accelStats().sblockExecs, 0u);
}

// ---------------------------------------------------------------------
// The per-block deadline: timeslices and exact samplers
// ---------------------------------------------------------------------

struct DeadlineOut
{
    StopReason reason = StopReason::Running;
    Word value = 0;
    std::string statsJson;
    std::string metricsJson;
    CountT preemptions = 0;
    CountT sblockExecs = 0;
};

/** One run of pointerLoopModule with a self-switching timeslice
 *  scheduler and exact telemetry, exporting the stats and the
 *  fpc-metrics-v1 document. */
DeadlineOut
runDeadline(const EngineCombo &combo, Mode mode, std::uint64_t slice,
            Tick interval, bool data_cache = false)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(pointerLoopModule());
    LinkPlan plan;
    plan.lowering = combo.lowering;
    const LoadedImage image = loader.load(mem, plan);

    MachineConfig config;
    config.impl = combo.impl;
    config.timesliceSteps = slice;
    config.useDataCache = data_cache;
    applyMode(config, mode);
    Machine machine(mem, image, config);
    machine.setScheduler(
        [](Machine &m) { return m.currentFrameContext(); });
    obs::Telemetry telemetry;
    machine.setSampler(&telemetry, interval);

    machine.start("M", "main", std::array<Word, 1>{Word{120}});
    telemetry.sample(machine);
    DeadlineOut out;
    out.reason = machine.run().reason;
    telemetry.sample(machine);
    if (out.reason == StopReason::TopReturn)
        out.value = machine.popValue();
    out.preemptions = machine.stats().preemptions;
    out.sblockExecs = machine.accelStats().sblockExecs;

    out.statsJson = statsJson(machine, out.reason);

    std::ostringstream metrics;
    obs::MetricsExport meta;
    meta.driver = "test_accel";
    meta.impl = implName(config.impl);
    meta.interval = interval;
    obs::writeMetricsJson(metrics, meta, telemetry);
    out.metricsJson = metrics.str();
    return out;
}

void
expectSameAsEager(const DeadlineOut &off, const DeadlineOut &out,
                  const std::string &what)
{
    EXPECT_EQ(off.reason, out.reason) << what;
    EXPECT_EQ(off.value, out.value) << what;
    EXPECT_EQ(off.preemptions, out.preemptions) << what;
    // Whole-document compares: gtest's line diff of two long JSON
    // documents costs quadratic memory, so report only which differs.
    EXPECT_TRUE(off.statsJson == out.statsJson) << "stats: " << what;
    EXPECT_TRUE(off.metricsJson == out.metricsJson)
        << "metrics: " << what;
}

TEST(AccelDeadline, SliceAndSamplerMatrixMatchesEager)
{
    // Every engine x timeslice x exact sampler interval, from "both
    // act after every step" (no block ever fits) to "both are rare"
    // (nearly everything runs fused): stats, metrics, preemption
    // points and the result are the eager loop's. Neither a timeslice
    // nor a sampler demotes the threaded backend any more, so it must
    // have run superblocks wherever blocks fit between the deadlines.
    for (const EngineCombo &combo : combos) {
        for (std::uint64_t slice : {1u, 3u, 100u, 10000u}) {
            for (Tick interval : {1u, 37u, 10000u}) {
                const DeadlineOut off =
                    runDeadline(combo, Mode::Off, slice, interval);
                ASSERT_EQ(off.reason, StopReason::TopReturn)
                    << implName(combo.impl);
                if (slice == 100) {
                    EXPECT_GT(off.preemptions, 0u)
                        << implName(combo.impl);
                }
                const DeadlineOut out =
                    runDeadline(combo, Mode::On, slice, interval);
                expectSameAsEager(off, out,
                                  std::string(implName(combo.impl)) +
                                      " slice " + std::to_string(slice) +
                                      " interval " +
                                      std::to_string(interval));
                if (slice >= 100 && interval == 10000) {
                    EXPECT_GT(out.sblockExecs, 0u)
                        << implName(combo.impl);
                }
            }
        }
    }
}

TEST(AccelDeadline, DemotionPredicateMatchesTheBackends)
{
    // The predicate run() gates on and the drivers warn from: only an
    // observer demotes the accelerated backend; an unaccelerated
    // machine is never "demoted".
    AccelConfig on;
    on.enabled = true;
    AccelConfig off = on;
    off.enabled = false;

    EXPECT_TRUE(Machine::accelDemoted(on, true));
    EXPECT_FALSE(Machine::accelDemoted(on, false));
    EXPECT_FALSE(Machine::accelDemoted(off, true));
    EXPECT_FALSE(Machine::accelDemoted(off, false));
}

TEST(AccelDeadline, DataCacheCeilingMatchesEager)
{
    // With a data cache a reference costs up to a miss plus a dirty
    // writeback; the block ceilings must cover that too.
    for (const EngineCombo &combo : combos) {
        for (Tick interval : {1u, 37u, 101u}) {
            const DeadlineOut off =
                runDeadline(combo, Mode::Off, 100, interval, true);
            ASSERT_EQ(off.reason, StopReason::TopReturn);
            const DeadlineOut out =
                runDeadline(combo, Mode::On, 100, interval, true);
            expectSameAsEager(off, out,
                              std::string(implName(combo.impl)) +
                                  " interval " +
                                  std::to_string(interval));
        }
    }
}

// ---------------------------------------------------------------------
// Invalidation
// ---------------------------------------------------------------------

/** Drive a machine mid-run, patch bump's immediate (77 -> 5) through
 *  pokeByte, and finish. Returns the final value. */
Word
patchMidRun(Mode mode, std::string *stats_json)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, mode);
    Machine machine(mem, image, config);
    machine.start("M", "main", std::array<Word, 1>{Word{100}});

    // Far enough that bump's decode is cached, mid-loop.
    for (int i = 0; i < 120; ++i)
        machine.step();

    // The immediate 77 appears exactly once in bump's body bytes.
    const PlacedModule &pm = image.modules().front();
    const PlacedProc &bump = pm.procs.front();
    std::vector<CodeByteAddr> sites;
    for (unsigned i = 0; i < bump.bodyBytes; ++i) {
        const CodeByteAddr a = bump.prologueAddr + bump.prologueBytes + i;
        if (mem.peekByte(a) == 77)
            sites.push_back(a);
    }
    EXPECT_EQ(sites.size(), 1u);
    mem.pokeByte(sites.front(), 5);

    const RunResult result = machine.run();
    EXPECT_EQ(result.reason, StopReason::TopReturn);
    const Word value = machine.popValue();
    if (stats_json != nullptr)
        *stats_json = statsJson(machine, result.reason);
    return value;
}

TEST(AccelInvalidation, PokeByteMidRunDropsStaleDecode)
{
    std::string off_json;
    const Word off = patchMidRun(Mode::Off, &off_json);
    // The result must show a mix of old and new immediates, proving
    // the patch landed mid-run, not before or after.
    EXPECT_NE(off, static_cast<Word>(100 * 77));
    EXPECT_NE(off, static_cast<Word>(100 * 5));
    // The patch must take effect under acceleration (a stale cached
    // decode of the old immediate would keep adding 77).
    std::string json;
    EXPECT_EQ(patchMidRun(Mode::On, &json), off);
    EXPECT_EQ(json, off_json);
}

TEST(AccelInvalidation, PokeByteInvalidatesWarmSuperblocks)
{
    // Warm the superblock cache over a complete threaded run, patch
    // bump's immediate through pokeByte, and rerun on the same
    // machine: the code-epoch move must flush every superblock before
    // the next entry, or the second run would keep executing the old
    // immediate out of the stale block.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    applyMode(config, Mode::On);
    Machine machine(mem, image, config);
    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 77));

    const PlacedModule &pm = image.modules().front();
    const PlacedProc &bump = pm.procs.front();
    std::vector<CodeByteAddr> sites;
    for (unsigned i = 0; i < bump.bodyBytes; ++i) {
        const CodeByteAddr a = bump.prologueAddr + bump.prologueBytes + i;
        if (mem.peekByte(a) == 77)
            sites.push_back(a);
    }
    ASSERT_EQ(sites.size(), 1u);
    mem.pokeByte(sites.front(), 5);

    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 5));
    EXPECT_GE(machine.accelStats().codeFlushes, 1u);
}

TEST(AccelInvalidation, RelocationFlushesMemoizedEntryPoints)
{
    // Warm every cache over a full run, move the module's code
    // segment, and rerun on the same machine: the memoized entry PCs
    // point into the old segment and must not survive.
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    config.impl = Impl::Mesa; // relocation forbids direct linkage
    config.accel.enabled = true;
    Machine machine(mem, image, config);

    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 77));

    const unsigned moved =
        relocateModule(mem, image, "M", imageCodeEnd(image));
    ASSERT_GT(moved, 0u);

    machine.start("M", "main", std::array<Word, 1>{Word{50}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_EQ(machine.popValue(), static_cast<Word>(50 * 77));
    EXPECT_GE(machine.accelStats().codeFlushes, 1u);
}

// ---------------------------------------------------------------------
// Steady-state behaviour and counters
// ---------------------------------------------------------------------

TEST(AccelCounters, HitRatesExceedNinetyPercentOnCallLoop)
{
    for (const EngineCombo &combo : combos) {
        const SystemLayout layout;
        Memory mem(layout.memWords);
        Loader loader{layout, SizeClasses::standard()};
        loader.add(callLoopModule());
        LinkPlan plan;
        plan.lowering = combo.lowering;
        const LoadedImage image = loader.load(mem, plan);

        MachineConfig config;
        config.impl = combo.impl;
        config.accel.enabled = true;
        Machine machine(mem, image, config);
        machine.start("M", "main", std::array<Word, 1>{Word{500}});
        ASSERT_EQ(machine.run().reason, StopReason::TopReturn)
            << implName(combo.impl);

        const AccelStats a = machine.accelStats();
        EXPECT_GT(a.icacheHitRate(), 0.9) << implName(combo.impl);
        EXPECT_GT(a.linkHitRate(), 0.9) << implName(combo.impl);
    }
}

TEST(AccelCounters, MergeSumsEveryField)
{
    AccelStats a;
    a.icacheHits = 10;
    a.icacheMisses = 2;
    a.extHits = 3;
    a.localHits = 4;
    a.directHits = 5;
    a.fatHits = 6;
    a.extMisses = 1;
    a.codeFlushes = 7;
    AccelStats b;
    b.icacheHits = 100;
    b.localMisses = 9;
    b.tableFlushes = 8;

    a.merge(b);
    EXPECT_EQ(a.icacheHits, 110u);
    EXPECT_EQ(a.icacheMisses, 2u);
    EXPECT_EQ(a.linkHits(), 3u + 4u + 5u + 6u);
    EXPECT_EQ(a.linkMisses(), 1u + 9u);
    EXPECT_EQ(a.codeFlushes, 7u);
    EXPECT_EQ(a.tableFlushes, 8u);
}

TEST(AccelCounters, DisabledMachineReportsZeroes)
{
    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    loader.add(callLoopModule());
    const LoadedImage image = loader.load(mem, LinkPlan{});

    MachineConfig config;
    config.accel.enabled = false;
    Machine machine(mem, image, config);
    machine.start("M", "main", std::array<Word, 1>{Word{10}});
    ASSERT_EQ(machine.run().reason, StopReason::TopReturn);
    EXPECT_FALSE(machine.accelEnabled());
    EXPECT_EQ(machine.accelStats().icacheHits, 0u);
    EXPECT_EQ(machine.accelStats().linkHits(), 0u);
}

} // namespace
} // namespace fpc
