/**
 * @file
 * fpcrun — the FPC batch driver: many jobs, many workers.
 *
 * Where fpcvm runs one program and exits, fpcrun feeds a pool of OS
 * worker threads (each owning an independent simulated Machine) from
 * a shared job queue and reports throughput plus the merged machine
 * statistics:
 *
 *   fpcrun --workers=4 --jobs=64 prog.mm 200       # 64 runs of prog
 *   fpcrun --workers=8 --jobs=32 --impl=banked --linkage=direct \
 *          --timeslice=1000 --stats prog.mm
 *   fpcrun --workers=4 --jobs=16 --synthetic --depth=9
 *
 * With --synthetic, each job runs a generated multi-module program
 * (seeded per job, so the pool sees varied call graphs) instead of a
 * compiled file. With --timeslice=N, every worker's machine preempts
 * its program every N instructions through the full ProcSwitch XFER
 * path, so throughput includes the paper's §7.1 fallback costs.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "obs/json.hh"
#include "obs/probes.hh"
#include "options.hh"
#include "replay/record.hh"
#include "sched/runtime.hh"
#include "serve/drain.hh"
#include "stats/table.hh"
#include "workload/synthetic.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string file;
    std::vector<Word> args;
    unsigned jobs = 16;
    sched::RuntimeConfig rc;
    cli::Reports rep;
    bool stats = false;
    bool synthetic = false;
    unsigned depth = 8; ///< synthetic entry argument
    cli::EntryPoint entry;
    std::string spansOut; ///< "fpc-spans-v1" span log path
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.rc.workers = 4;
    cli::OptionTable t(argv[0], {"[options] <file.mm> [int args...]",
                                 "[options] --synthetic"});
    cli::workersOption(t, opt.rc.workers);
    t.value("--jobs", "M", "jobs to run", opt.jobs);
    cli::engineOptions(t, opt.rc.machine, opt.rc.plan);
    t.flag("--synthetic", "generate one program per job", opt.synthetic);
    t.value("--depth", "N", "synthetic recursion depth", opt.depth);
    cli::entryOption(t, opt.entry);
    t.flag("--stats", "dump merged statistics", opt.stats);
    cli::exportOptions(t, opt.rc, opt.rep);
    t.value("--spans-out", "FILE",
            "write per-job host-time spans as fpc-spans-v1", opt.spansOut);
    cli::profileOptions(t, opt.rc, opt.rep);
    cli::jobOptions(t, opt.rc.metricsInterval, opt.rc.postmortemDir,
                    opt.rep.probeSpecs);
    cli::logOptions(t);
    const std::vector<std::string> positional = t.parse(argc, argv);
    if (positional.empty() && !opt.synthetic)
        t.fail("missing <file.mm> or --synthetic");
    if (opt.synthetic && opt.rc.record)
        t.fail("--record-out needs a compiled program; --synthetic jobs "
               "have no source to embed");
    if (!positional.empty())
        opt.file = positional.front();
    opt.args = t.programArgs(positional, 1);
    return opt;
}

void
dumpMergedStats(const sched::Runtime &runtime)
{
    const MachineStats &s = runtime.machineStats();
    std::cout << "\n--- merged statistics (" << runtime.workers()
              << " workers) ---\n"
              << "instructions: " << s.steps
              << "   simulated cycles: " << s.cycles << "\n";

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
    if (s.preemptions > 0)
        std::cout << "preemptions: " << s.preemptions << "\n";
    runtime.stats().dump(std::cout);
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opt = parseArgs(argc, argv);
    sched::RuntimeConfig &rc = opt.rc;
    const cli::Reports &rep = opt.rep;
    rc.driver = "fpcrun";

    // Dynamic probes ride the selective-deopt path: only superblocks
    // covering a probed procedure fall back to the eager loop, so
    // probes are deliberately absent from the warning below.
    obs::ProbeRegistry probeRegistry;
    if (!rep.probeSpecs.empty()) {
        std::string perr;
        if (!obs::attachProbeSpecs(probeRegistry, rep.probeSpecs,
                                   perr)) {
            error("fpcrun: {}", perr);
            return 2;
        }
        rc.probes = &probeRegistry;
    }

    cli::warnAccelDemoted("fpcrun", rc.machine.accel,
                          rc.trace || rc.profile ||
                              !rc.postmortemDir.empty(),
                          "--profile/--trace-out/--postmortem-dir",
                          ". Use --profile-sampled to keep the fast path");
    // Batch spans: the runtime synthesizes request ⊃ queued ⊃ execute
    // trees per job (host time only — simulated numbers untouched).
    std::unique_ptr<obs::SpanCollector> spans;
    if (!opt.spansOut.empty()) {
        spans = std::make_unique<obs::SpanCollector>();
        rc.spans = spans.get();
    }
    // Graceful shutdown: SIGINT/SIGTERM let running jobs finish,
    // cancel the rest, and still emit every requested export below.
    serve::DrainSignal drain;
    rc.stopFlag = &drain.flag();
    sched::Runtime runtime(rc);

    std::string source;
    std::string entry;
    if (opt.synthetic) {
        for (unsigned j = 0; j < opt.jobs; ++j) {
            ProgramConfig pc;
            pc.seed = j + 1;
            auto modules =
                std::make_shared<const std::vector<Module>>(
                    generateProgram(pc));
            runtime.submit({modules, generatedEntryModule(),
                            generatedEntryProc(),
                            {static_cast<Word>(opt.depth)}});
        }
    } else {
        std::ifstream in(opt.file);
        if (!in) {
            error("fpcrun: cannot open {}", opt.file);
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        source = buffer.str();
        auto modules = std::make_shared<const std::vector<Module>>(
            lang::compile(source));

        entry = opt.entry.moduleIn(*modules);
        for (unsigned j = 0; j < opt.jobs; ++j)
            runtime.submit({modules, entry, opt.entry.proc, opt.args});
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<sched::JobResult> results = runtime.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();

    unsigned ok = 0, failed = 0, canceled = 0;
    for (const sched::JobResult &r : results) {
        if (r.ok) {
            ++ok;
        } else if (drain.requested() &&
                   r.error == "canceled: drain requested") {
            ++canceled;
        } else {
            ++failed;
            error("fpcrun: job {} failed ({}): {}", r.id,
                  stopReasonName(r.reason), r.error);
        }
    }
    if (drain.requested())
        inform("fpcrun: drained after signal; {} job(s) canceled, "
               "exports still written",
               canceled);

    std::cout << ok << "/" << results.size() << " jobs ok, "
              << runtime.workers() << " workers, " << stats::fixed(secs, 3)
              << " s wall, "
              << stats::fixed(results.size() / std::max(secs, 1e-9), 1)
              << " jobs/s\n";
    if (!results.empty() && results.front().ok && !opt.synthetic)
        std::cout << "=> " << static_cast<SWord>(results.front().value)
                  << "\n";

    if (opt.stats)
        dumpMergedStats(runtime);
    if (rep.accelStats)
        cli::printAccelStats("host acceleration (merged)",
                             rc.machine.accel.enabled, runtime.accelStats());

    if (!rep.traceOut.empty()) {
        std::ofstream out(rep.traceOut);
        if (!out) {
            error("fpcrun: cannot write {}", rep.traceOut);
            return 1;
        }
        runtime.writeTrace(out);
    }
    if (rc.profile) {
        const obs::ProfileData &data = runtime.profile();
        std::cout << "\n--- merged profile (top " << rep.profileTop
                  << " by exclusive cycles) ---\n";
        data.topTable(rep.profileTop).print(std::cout);
        if (!rep.profileFolded.empty()) {
            std::ofstream out(rep.profileFolded);
            if (!out) {
                error("fpcrun: cannot write {}", rep.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (rc.profileSampled) {
        const obs::SampledProfile &data = runtime.sampledProfile();
        std::cout << "\n--- merged sampled profile (top "
                  << rep.profileTop << " by samples, interval "
                  << rc.sampleInterval << " cycles) ---\n";
        data.topTable(rep.profileTop).print(std::cout);
        if (!rep.profileFolded.empty() && !rc.profile) {
            std::ofstream out(rep.profileFolded);
            if (!out) {
                error("fpcrun: cannot write {}", rep.profileFolded);
                return 1;
            }
            data.writeFolded(out);
        }
    }
    if (!rep.statsJson.empty()) {
        std::ofstream out(rep.statsJson);
        if (!out) {
            error("fpcrun: cannot write {}", rep.statsJson);
            return 1;
        }
        obs::StatsExport exp;
        exp.driver = "fpcrun";
        exp.impl = implName(rc.machine.impl);
        exp.workers = runtime.workers();
        exp.machine = &runtime.machineStats();
        exp.groups.push_back(&runtime.stats());
        // Host counters only on request: the default document must be
        // byte-identical with acceleration on or off.
        if (rep.accelStats)
            exp.accel = &runtime.accelStats();
        obs::writeStatsJson(out, exp);
    }
    if (!rep.metricsOut.empty()) {
        std::ofstream out(rep.metricsOut);
        if (!out) {
            error("fpcrun: cannot write {}", rep.metricsOut);
            return 1;
        }
        runtime.writeMetricsJson(out, rep.accelStats);
    }
    if (!rep.openmetricsOut.empty()) {
        std::ofstream out(rep.openmetricsOut);
        if (!out) {
            error("fpcrun: cannot write {}", rep.openmetricsOut);
            return 1;
        }
        runtime.writeOpenMetrics(out, rep.accelStats);
    }
    if (spans) {
        const auto faults = obs::checkSpans(*spans);
        if (!faults.empty())
            warn("fpcrun: span checker found {} fault(s)",
                 faults.size());
        std::ofstream out(opt.spansOut);
        if (!out) {
            error("fpcrun: cannot write {}", opt.spansOut);
            return 1;
        }
        obs::writeSpansLog(out, "fpcrun", *spans);
    }
    if (!rep.probeOut.empty()) {
        std::ofstream out(rep.probeOut);
        if (!out) {
            error("fpcrun: cannot write {}", rep.probeOut);
            return 1;
        }
        probeRegistry.writeJson(out, "fpcrun");
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
        log.workers = runtime.workers();
        log.stride = runtime.stride();
        log.imageHash = runtime.recordedImageHash();
        log.entryModule = entry;
        log.entryProc = opt.entry.proc;
        log.args = opt.args;
        log.source = source;
        log.jobs = runtime.jobRecords();
        std::ofstream out(rep.recordOut);
        if (!out) {
            error("fpcrun: cannot write {}", rep.recordOut);
            return 1;
        }
        replay::writeRecord(out, log);
        inform("fpcrun: recorded {} job(s) to {}", log.jobs.size(),
               rep.recordOut);
    }
    return failed == 0 ? 0 : 1;
} catch (const std::exception &err) {
    error("fpcrun: {}", err.what());
    return 1;
}
