/**
 * @file
 * fpcvm — the FPC virtual machine driver.
 *
 * Compiles a MiniMesa source file and runs it on the simulated
 * processor:
 *
 *   fpcvm prog.mm                          # I2/Mesa defaults
 *   fpcvm --impl=banked --linkage=direct --short-calls prog.mm 20 5
 *   fpcvm --stats --disasm prog.mm
 *   fpcvm --trace-out=t.json --profile --stats-json=s.json prog.mm
 *
 * Positional arguments after the file are passed to <entry>(...) as
 * 16-bit integers; the entry point is Main.main or, if there is no
 * module named Main, the first module's "main".
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/disasm.hh"
#include "lang/codegen.hh"
#include "machine/machine.hh"
#include "obs/fanout.hh"
#include "obs/json.hh"
#include "obs/postmortem.hh"
#include "obs/probes.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "options.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "replay/recorder.hh"
#include "stats/table.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string file;
    std::vector<Word> args;
    sched::RuntimeConfig rc; ///< the one job's configuration
    cli::Reports rep;
    bool stats = false;
    bool disasm = false;
    cli::EntryPoint entry;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    cli::OptionTable t(argv[0], {"[options] <file.mm> [int args...]"});
    cli::engineOptions(t, opt.rc.machine, opt.rc.plan);
    cli::entryOption(t, opt.entry);
    t.flag("--stats", "dump machine statistics", opt.stats);
    t.flag("--disasm", "dump the loaded code", opt.disasm);
    cli::exportOptions(t, opt.rc, opt.rep);
    cli::profileOptions(t, opt.rc, opt.rep);
    cli::jobOptions(t, opt.rc.metricsInterval, opt.rc.postmortemDir,
                    opt.rep.probeSpecs);
    cli::logOptions(t);
    const std::vector<std::string> positional = t.parse(argc, argv);
    if (positional.empty())
        t.fail("missing <file.mm>");
    opt.file = positional.front();
    opt.args = t.programArgs(positional, 1);
    return opt;
}

void
dumpDisassembly(const LoadedImage &image, Memory &mem)
{
    for (const PlacedModule &pm : image.modules()) {
        std::cout << "module " << pm.src->name << "  (code "
                  << pm.segBytes << " bytes, "
                  << callLoweringName(pm.lowering) << " linkage, "
                  << pm.lvCount << " LV slots)\n";
        for (unsigned p = 0; p < pm.procs.size(); ++p) {
            const PlacedProc &pp = pm.procs[p];
            std::cout << "  proc " << pm.src->procs[p].name
                      << "  (fsi " << pp.fsi << ", frame "
                      << image.classes().classWords(pp.fsi)
                      << " words)\n";
            std::vector<std::uint8_t> bytes;
            for (unsigned i = 0; i < pp.bodyBytes; ++i)
                bytes.push_back(mem.peekByte(pp.prologueAddr +
                                             pp.prologueBytes + i));
            for (const auto &line : isa::disassemble(bytes))
                std::cout << "    " << line.offset << ":\t"
                          << line.text << "\n";
        }
    }
}

void
dumpStats(const Machine &machine, const Memory &mem)
{
    const MachineStats &s = machine.stats();
    std::cout << "\n--- statistics ---\n"
              << "instructions: " << s.steps
              << "   cycles: " << s.cycles
              << "   storage refs: " << mem.totalRefs() << "\n";

    stats::Table table({"transfer", "count", "fast", "mean refs",
                        "mean cycles"});
    for (unsigned k = 0; k < MachineStats::numXferKinds; ++k) {
        if (s.xferCount[k] == 0)
            continue;
        table.row(xferKindName(static_cast<XferKind>(k)),
                  s.xferCount[k], s.xferFast[k],
                  stats::fixed(s.xferRefs[k].mean(), 2),
                  stats::fixed(s.xferCycles[k].mean(), 1));
    }
    table.print(std::cout);
    std::cout << "jump-speed calls+returns: "
              << stats::percent(s.fastCallReturnRate()) << "\n";
    if (machine.config().impl == Impl::Banked) {
        std::cout << "bank overflows: " << s.bankOverflows
                  << "   underflows: " << s.bankUnderflows
                  << "   fast frame allocs: " << s.fastFrameAllocs
                  << "/" << s.fastFrameAllocs + s.slowFrameAllocs
                  << "\n";
    }
    if (machine.config().impl == Impl::Ifu ||
        machine.config().impl == Impl::Banked) {
        std::cout << "return stack hits: " << s.returnStackHits
                  << "   misses: " << s.returnStackMisses
                  << "   spills: " << s.returnStackSpills << "\n";
    }
    if (machine.config().timesliceSteps > 0) {
        std::cout << "timeslice: " << machine.config().timesliceSteps
                  << " instructions   preemptions: " << s.preemptions
                  << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);
    const sched::RuntimeConfig &rc = opt.rc;
    const cli::Reports &rep = opt.rep;

    std::ifstream in(opt.file);
    if (!in) {
        error("fpcvm: cannot open {}", opt.file);
        return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();

    const auto modules = lang::compile(source);
    const std::string entry = opt.entry.moduleIn(modules);

    const SystemLayout layout;
    Memory mem(layout.memWords);
    Loader loader{layout, SizeClasses::standard()};
    for (const auto &m : modules)
        loader.add(m);
    const LoadedImage image = loader.load(mem, rc.plan);
    // Hash before the Machine exists: its FrameHeap constructor
    // rewrites the AV, and replay hashes at this same point.
    const std::uint64_t imageHash =
        rc.record ? replay::imageHash(mem, image) : 0;

    if (opt.disasm)
        dumpDisassembly(image, mem);

    Machine machine(mem, image, rc.machine);

    // Observability: a tracer and/or profiler share the machine's one
    // observer slot through a fanout. Both are free when unused.
    obs::ProcMap procMap;
    obs::Tracer tracer(rc.traceCapacity);
    std::optional<obs::Profiler> profiler;
    obs::Fanout fanout;
    if (rc.trace) {
        procMap = obs::ProcMap(image);
        tracer.setProcMap(&procMap);
        fanout.add(&tracer);
    }
    if (rc.profile) {
        profiler.emplace(image);
        fanout.add(&*profiler);
    }
    obs::FlightRecorder recorder;
    if (!rc.postmortemDir.empty())
        fanout.add(&recorder);
    if (!fanout.empty())
        machine.setObserver(&fanout);

    const bool telemetryWanted = rc.metrics || !rc.postmortemDir.empty();
    obs::Telemetry telemetry(rc.metricsCapacity);
    // The replay recorder, telemetry and the sampled profiler each
    // ride the machine's exact sampler on their own grid, so none of
    // them moves another's sample points.
    replay::Recorder replayRec;
    if (rc.record) {
        replayRec.beginJob(0, 0);
        machine.addSampler(&replayRec, rc.metricsInterval);
    }
    if (telemetryWanted)
        machine.addSampler(&telemetry, rc.metricsInterval);
    std::optional<obs::SampledProfiler> sampledProfiler;
    if (rc.profileSampled) {
        sampledProfiler.emplace(image);
        machine.addSampler(&*sampledProfiler, rc.sampleInterval);
    }

    cli::warnAccelDemoted("fpcvm", rc.machine.accel,
                          rc.trace || rc.profile ||
                              !rc.postmortemDir.empty(),
                          "--profile/--trace-out/--postmortem-dir",
                          ". Use --profile-sampled to keep the fast path");

    // Dynamic probes: zero simulated cost and accel-safe (only the
    // armed procedures deoptimize), so they are deliberately absent
    // from the warning above.
    obs::ProbeRegistry probeRegistry;
    std::optional<obs::ProbeEngine> probeEngine;
    if (!rep.probeSpecs.empty()) {
        std::string perr;
        if (!obs::attachProbeSpecs(probeRegistry, rep.probeSpecs,
                                   perr)) {
            error("fpcvm: {}", perr);
            return 2;
        }
        probeEngine.emplace(probeRegistry.snapshot(), image,
                            "default", 0);
        machine.setProbeSink(&*probeEngine,
                             probeEngine->armedRanges());
    }

    if (rc.machine.timesliceSteps > 0) {
        // Single program, so every expired slice switches the process
        // to itself — still a full ProcSwitch XFER through the engine.
        Machine::Scheduler policy =
            [](Machine &m) { return m.currentFrameContext(); };
        if (rc.record)
            policy = replayRec.wrapPolicy(std::move(policy));
        machine.setScheduler(std::move(policy));
    }
    machine.start(entry, opt.entry.proc, opt.args);
    // Bracket the run: even programs shorter than one interval export
    // a start and a final point.
    if (rc.record)
        replayRec.sample(machine);
    if (telemetryWanted)
        telemetry.sample(machine);
    const RunResult result = machine.run();
    if (rc.record)
        replayRec.finish(machine, result); // before popValue below
    if (telemetryWanted)
        telemetry.sample(machine);

    if (probeEngine) {
        machine.setProbeSink(nullptr);
        probeEngine->finishInto(probeRegistry);
    }

    for (const Word v : machine.output())
        std::cout << static_cast<SWord>(v) << "\n";

    int exit_code = 0;
    if (result.reason == StopReason::TopReturn) {
        std::cout << "=> "
                  << static_cast<SWord>(machine.popValue()) << "\n";
    } else if (result.reason != StopReason::Halted) {
        error("fpcvm: {}: {}", stopReasonName(result.reason),
              result.message);
        exit_code = 1;
        if (!rc.postmortemDir.empty()) {
            obs::PostmortemConfig pm;
            pm.dir = rc.postmortemDir;
            pm.driver = "fpcvm";
            pm.impl = implName(rc.machine.impl);
            if (obs::writePostmortem(pm, machine, result, image,
                                     recorder, &telemetry)) {
                inform("fpcvm: postmortem bundle written to {}",
                       rc.postmortemDir);
            }
        }
    }

    if (opt.stats)
        dumpStats(machine, mem);
    if (rep.accelStats)
        cli::printAccelStats("host acceleration", machine.accelEnabled(),
                             machine.accelStats());

    // Artifacts are written even when the program stopped on an error:
    // a trace of a failing run is the one you want to look at.
    if (!rep.traceOut.empty()) {
        std::ofstream out(rep.traceOut);
        if (!out) {
            error("fpcvm: cannot write {}", rep.traceOut);
            return 1;
        }
        obs::writeChromeTrace(out, tracer);
        if (tracer.dropped() > 0)
            warn("fpcvm: trace ring dropped {} of {} events (raise "
                 "--trace-capacity)",
                 tracer.dropped(), tracer.recorded());
    }
    if (profiler) {
        const obs::ProfileData data =
            profiler->finish(machine.cycles());
        std::cout << "\n--- profile (top " << rep.profileTop
                  << " by exclusive cycles) ---\n";
        data.topTable(rep.profileTop).print(std::cout);
        if (!rep.profileFolded.empty()) {
            std::ofstream out(rep.profileFolded);
            if (!out) {
                error("fpcvm: cannot write {}", rep.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (sampledProfiler) {
        const obs::SampledProfile data = sampledProfiler->finish();
        std::cout << "\n--- sampled profile (top " << rep.profileTop
                  << " by samples, interval " << rc.sampleInterval
                  << " cycles) ---\n";
        data.topTable(rep.profileTop).print(std::cout);
        if (!rep.profileFolded.empty() && !rc.profile) {
            std::ofstream out(rep.profileFolded);
            if (!out) {
                error("fpcvm: cannot write {}", rep.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (!rep.probeOut.empty()) {
        std::ofstream out(rep.probeOut);
        if (!out) {
            error("fpcvm: cannot write {}", rep.probeOut);
            return 1;
        }
        probeRegistry.writeJson(out, "fpcvm");
    }
    if (!rep.statsJson.empty()) {
        std::ofstream out(rep.statsJson);
        if (!out) {
            error("fpcvm: cannot write {}", rep.statsJson);
            return 1;
        }
        obs::StatsExport exp;
        exp.driver = "fpcvm";
        exp.impl = implName(rc.machine.impl);
        exp.stopReason = stopReasonName(result.reason);
        exp.machine = &machine.stats();
        exp.memory = &mem;
        exp.heap = &machine.heap().stats();
        exp.cache = machine.dataCache();
        // Host counters only on request: the default document must be
        // byte-identical with acceleration on or off.
        AccelStats accel_counters;
        if (rep.accelStats) {
            accel_counters = machine.accelStats();
            exp.accel = &accel_counters;
        }
        obs::writeStatsJson(out, exp);
    }
    if (rc.metrics) {
        obs::MetricsExport meta;
        meta.driver = "fpcvm";
        meta.impl = implName(rc.machine.impl);
        meta.interval = rc.metricsInterval;
        // Host hit rates only on request, like --accel-stats: the
        // default series must be byte-identical with --accel=on|off.
        meta.includeAccel = rep.accelStats;
        if (!rep.metricsOut.empty()) {
            std::ofstream out(rep.metricsOut);
            if (!out) {
                error("fpcvm: cannot write {}", rep.metricsOut);
                return 1;
            }
            obs::writeMetricsJson(out, meta, telemetry);
            if (telemetry.dropped() > 0)
                warn("fpcvm: metrics ring dropped {} of {} samples "
                     "(raise --metrics-capacity)",
                     telemetry.dropped(), telemetry.recorded());
        }
        if (!rep.openmetricsOut.empty()) {
            std::ofstream out(rep.openmetricsOut);
            if (!out) {
                error("fpcvm: cannot write {}", rep.openmetricsOut);
                return 1;
            }
            obs::writeOpenMetrics(out, meta, telemetry);
        }
    }
    if (!rep.recordOut.empty()) {
        replay::RecordLog log;
        log.impl = rc.machine.impl;
        log.lowering = rc.plan.lowering;
        log.shortCalls = rc.plan.shortCalls;
        log.banks = rc.machine.numBanks;
        log.timeslice = rc.machine.timesliceSteps;
        log.accel = rc.machine.accel.enabled;
        log.interval = rc.metricsInterval;
        log.workers = 1;
        log.stride = 1;
        log.imageHash = imageHash;
        log.entryModule = entry;
        log.entryProc = opt.entry.proc;
        log.args = opt.args;
        log.source = source;
        log.jobs.push_back(replayRec.takeJob());
        std::ofstream out(rep.recordOut);
        if (!out) {
            error("fpcvm: cannot write {}", rep.recordOut);
            return 1;
        }
        replay::writeRecord(out, log);
    }
    return exit_code;
} catch (const std::exception &err) {
    error("fpcvm: {}", err.what());
    return 1;
}
