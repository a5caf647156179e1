/**
 * @file
 * fpcreplay — deterministic record/replay driver.
 *
 *   fpcreplay record prog.mm 20 --out=run.fpcr      # capture a run
 *   fpcreplay verify run.fpcr                       # re-run + check
 *   fpcreplay verify run.fpcr --accel=off           # accel contract
 *   fpcreplay diverge run.fpcr --engine=I2          # cross-engine
 *
 * record executes a MiniMesa program exactly like fpcvm would and
 * streams an fpc-record-v1 log: the machine configuration, the
 * embedded source, every scheduler decision, periodic FNV-1a state
 * digests, and the final state. verify re-executes from the log,
 * forcing the recorded decisions, and cross-checks every digest; on
 * mismatch it reports the first divergent interval, bisects it at
 * per-XFER granularity, and (with --postmortem-dir=) writes an
 * extended fpc-postmortem-v1 divergence bundle. diverge replays the
 * recording on a second engine and compares architectural digests
 * after every transfer — the paper's engine-equivalence claim as an
 * executable check.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "machine/digest.hh"
#include "machine/machine.hh"
#include "options.hh"
#include "program/loader.hh"
#include "replay/record.hh"
#include "replay/recorder.hh"
#include "replay/replayer.hh"

using namespace fpc;

namespace
{

struct Options
{
    std::string command; ///< record | verify | diverge
    std::string file;    ///< .mm for record, .fpcr otherwise
    std::vector<Word> args;
    std::string out = "run.fpcr";
    MachineConfig machine;
    LinkPlan plan;
    std::optional<bool> accelOverride; ///< verify: force accel on/off
    Tick interval = 10000;
    cli::EntryPoint entry;
    std::string postmortemDir;
    std::optional<Impl> engine; ///< diverge: the other engine
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    cli::OptionTable t(
        argv[0],
        {"record <file.mm> [int args...] [options]",
         "verify <run.fpcr> [options]",
         "diverge <run.fpcr> --engine=ENGINE [options]"},
        "verify and diverge replay on the recorded machine; --accel= "
        "picks their host\nbackend instead (digests must match on every "
        "backend).\n");
    t.value("--out", "FILE", "record: recording path", opt.out);
    cli::engineOptions(t, opt.machine, opt.plan);
    t.value("--interval", "N", "record: cycles between state digests",
            opt.interval);
    cli::entryOption(t, opt.entry);
    t.value("--postmortem-dir", "DIR",
            "verify: write a divergence bundle on mismatch",
            opt.postmortemDir);
    t.choice("--engine", "I1|I2|I3|I4",
             "diverge: the engine to compare against (simple|mesa|ifu|"
             "banked name the same four)",
             "", [&opt](std::string_view v) {
                 opt.engine = cli::parseImpl(v);
                 return opt.engine.has_value();
             });
    cli::logOptions(t);
    const std::vector<std::string> positional = t.parse(argc, argv);
    if (t.given("--accel"))
        opt.accelOverride = opt.machine.accel.enabled;
    if (positional.size() < 2)
        t.fail("missing command or file");
    opt.command = positional[0];
    opt.file = positional[1];
    opt.args = t.programArgs(positional, 2);
    if (opt.command != "record" && opt.command != "verify" &&
        opt.command != "diverge")
        t.fail("unknown command " + opt.command);
    if (opt.command == "diverge" && !opt.engine)
        t.fail("diverge needs --engine");
    return opt;
}

int
doRecord(const Options &opt)
{
    std::ifstream in(opt.file);
    if (!in) {
        error("fpcreplay: cannot open {}", opt.file);
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
    const LoadedImage image = loader.load(mem, opt.plan);

    replay::RecordLog log;
    log.impl = opt.machine.impl;
    log.lowering = opt.plan.lowering;
    log.shortCalls = opt.plan.shortCalls;
    log.banks = opt.machine.numBanks;
    log.timeslice = opt.machine.timesliceSteps;
    log.accel = opt.machine.accel.enabled;
    log.interval = opt.interval;
    log.workers = 1;
    log.stride = 1;
    log.imageHash = replay::imageHash(mem, image);
    log.entryModule = entry;
    log.entryProc = opt.entry.proc;
    log.args = opt.args;
    log.source = source;

    Machine machine(mem, image, opt.machine);

    replay::Recorder recorder;
    recorder.beginJob(0, 0);
    machine.setSampler(&recorder, opt.interval);
    if (opt.machine.timesliceSteps > 0) {
        machine.setScheduler(recorder.wrapPolicy(
            [](Machine &m) { return m.currentFrameContext(); }));
    }

    machine.start(entry, opt.entry.proc, opt.args);
    recorder.sample(machine);
    const RunResult result = machine.run();
    recorder.finish(machine, result);
    log.jobs.push_back(recorder.takeJob());

    std::ofstream os(opt.out);
    if (!os) {
        error("fpcreplay: cannot write {}", opt.out);
        return 1;
    }
    replay::writeRecord(os, log);
    const replay::JobRecord &job = log.jobs.front();
    std::cout << "recorded " << opt.file << " -> " << opt.out << " ("
              << stopReasonName(result.reason) << ", "
              << job.final.steps << " steps, " << job.samples.size()
              << " digests, " << job.decisions.size()
              << " decisions)\n";
    return 0;
}

replay::RecordLog
loadRecord(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("fpcreplay: cannot open {}", path);
    return replay::parseRecord(in);
}

int
doVerify(const Options &opt)
{
    replay::Replayer replayer(loadRecord(opt.file));

    replay::VerifyOptions vo;
    vo.accelOverride = opt.accelOverride;
    vo.divergenceDir = opt.postmortemDir;
    const replay::VerifyResult result = replayer.verify(vo);

    if (result.ok) {
        std::cout << "verify OK: " << result.jobsChecked << " job(s), "
                  << result.samplesChecked << " digest(s) matched on "
                  << implName(replayer.log().impl) << "\n";
        return 0;
    }
    if (result.divergence) {
        const replay::Divergence &d = *result.divergence;
        error("fpcreplay: divergence: {}", d.detail);
        if (!d.bundlePath.empty())
            inform("divergence bundle written to {}", d.bundlePath);
    }
    if (result.decisionOverrun)
        error("fpcreplay: scheduler decisions did not match the "
              "recording");
    return 1;
}

int
doDiverge(const Options &opt)
{
    replay::Replayer replayer(loadRecord(opt.file));
    const Impl base = replayer.log().impl;
    const replay::DivergeResult result = replayer.diverge(*opt.engine);

    if (result.equivalent) {
        std::cout << "engines equivalent: " << implName(base) << " vs "
                  << implName(*opt.engine) << ", "
                  << result.xfersCompared
                  << " transfers, identical architectural digests\n";
        return 0;
    }
    if (result.countMismatch) {
        std::cout << "engines diverge: transfer counts differ after "
                  << result.xfersCompared << " matching transfers\n";
    } else {
        std::cout << "engines diverge at transfer "
                  << result.xferIndex << " (step " << result.step
                  << "): " << implName(base) << " "
                  << replay::digestHex(result.baseDigest) << " vs "
                  << implName(*opt.engine) << " "
                  << replay::digestHex(result.otherDigest) << "\n";
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);
    if (opt.command == "record")
        return doRecord(opt);
    if (opt.command == "verify")
        return doVerify(opt);
    return doDiverge(opt);
} catch (const std::exception &err) {
    error("fpcreplay: {}", err.what());
    return 1;
}
