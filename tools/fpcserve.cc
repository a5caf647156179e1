/**
 * @file
 * fpcserve — the FPC serving daemon: a long-lived, multi-tenant job
 * server over the pooled runtime.
 *
 * Where fpcrun drains a fixed batch and exits, fpcserve listens on a
 * TCP port for fpc-serve-v1 frames, runs submitted MiniMesa jobs on a
 * persistent worker pool with per-worker reusable machine contexts,
 * and applies admission control (bounded queues, per-tenant cycle
 * quotas) with deficit-round-robin fair dispatch across tenants:
 *
 *   fpcserve --port=7533 --workers=4
 *   fpcserve --port=7533 --tenant=gold:4:64 --tenant=bronze:1:8:200000 \
 *            --queue-capacity=32 --preload=primes=examples/programs/primes.mm
 *
 * SIGINT/SIGTERM drain gracefully: stop accepting, answer late
 * submits with DRAINING, finish everything admitted, flush the
 * telemetry exports, exit 0. A SCRAPE request (or --openmetrics-out
 * at drain) exposes queue depth, per-tenant gauges and job-latency
 * percentiles.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <poll.h>

#include "accel_option.hh"
#include "common/logging.hh"
#include "lang/codegen.hh"
#include "serve/drain.hh"
#include "serve/server.hh"
#include "stats/table.hh"

using namespace fpc;

namespace
{

struct Options
{
    serve::ServerConfig server;
    std::vector<std::pair<std::string, std::string>> preloads;
    std::vector<std::pair<std::string, double>> slos;
    std::string metricsOut;
    std::string openmetricsOut;
    std::string spansOut;
    std::string traceOut;
    std::string probeOut;
};

void
printUsage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " [options]\n"
          "  --host=ADDR                     listen address (default "
          "127.0.0.1)\n"
          "  --port=N                        listen port (default 0 = "
          "ephemeral, printed at start)\n"
          "  --workers=N                     pool worker threads "
          "(default 2)\n"
          "  --impl=simple|mesa|ifu|banked   machine (default mesa)\n"
          "  --linkage=fat|mesa|direct       binding (default mesa)\n"
          "  --short-calls                   use SHORTDIRECTCALL\n"
          "  --banks=N                       register banks (I4)\n"
          "  --timeslice=N                   preempt every N "
          "instructions\n"
          "  --accel=on|off                  host backend: threaded-code "
          "superblocks\n"
          "                                  (default) or the eager "
          "loop\n"
          "  --queue-capacity=N              admitted-job bound across "
          "tenants (default 256)\n"
          "  --max-inflight=N                jobs on the pool at once "
          "(default = workers)\n"
          "  --tenant=NAME:W[:Q[:C]]         tenant weight W, max "
          "queued Q, cycles/window C\n"
          "  --slo=NAME:MS                   tenant latency SLO "
          "target in ms (admission to reply)\n"
          "  --default-weight=W              unconfigured-tenant DRR "
          "weight (default 1)\n"
          "  --default-max-queued=N          unconfigured-tenant queue "
          "bound (default 64)\n"
          "  --default-cycles-per-window=N   unconfigured-tenant cycle "
          "quota (default 0 = off)\n"
          "  --quota-window-ms=N             cycle-quota window "
          "(default 1000)\n"
          "  --preload=NAME=FILE.mm          compile FILE.mm and serve "
          "it as program NAME\n"
          "  --postmortem-dir=DIR            write a bundle per failed "
          "job\n"
          "  --metrics-out=FILE              write per-worker "
          "fpc-metrics-v1 series at drain\n"
          "  --metrics-interval=N            cycles between samples "
          "(default "
       << obs::Telemetry::defaultInterval
       << ")\n"
          "  --telemetry-mode=exact|sampled  exact: cycle-precise "
          "sampler (default).\n"
          "                                  sampled: bounded-slop "
          "boundary samples\n"
          "  --openmetrics-out=FILE          write the series as "
          "OpenMetrics text at drain\n"
          "  --spans-out=FILE                write request spans as "
          "fpc-spans-v1 at drain\n"
          "  --trace-out=FILE                write spans (plus "
          "per-worker XFER tracks) as Perfetto JSON at drain\n"
          "  --spans-capacity=N              span ring size, "
          "drop-oldest (default "
       << obs::SpanCollector::defaultCapacity
       << ")\n"
          "  --probe=SPEC                    attach a dynamic probe at "
          "start (repeatable);\n"
          "                                  clients can attach/detach "
          "more live via the\n"
          "                                  PROBE op; results in "
          "SCRAPE as fpc_probe_*\n"
          "  --probe-out=FILE                write probe aggregations "
          "as fpc-probes-v1 at drain\n"
          "  --log-level=error|warn|info|debug  stderr verbosity "
          "(default info)\n"
          "  --help                          show this help\n";
}

[[noreturn]] void
usage(const char *argv0)
{
    printUsage(std::cerr, argv0);
    std::exit(2);
}

/** Parse "NAME:W[:Q[:C]]" into a (name, TenantConfig) pair. */
bool
parseTenant(const std::string &spec, std::string &name,
            serve::TenantConfig &config)
{
    std::vector<std::string> parts;
    std::stringstream ss(spec);
    std::string part;
    while (std::getline(ss, part, ':'))
        parts.push_back(part);
    if (parts.size() < 2 || parts.size() > 4 || parts[0].empty())
        return false;
    try {
        name = parts[0];
        config.weight = std::stod(parts[1]);
        if (parts.size() >= 3)
            config.maxQueued = std::stoull(parts[2]);
        if (parts.size() >= 4)
            config.cyclesPerWindow = std::stoull(parts[3]);
    } catch (const std::exception &) {
        return false;
    }
    return config.weight > 0;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    serve::ServerConfig &sc = opt.server;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const std::string &prefix) {
            return arg.substr(prefix.size());
        };
        if (arg.rfind("--host=", 0) == 0) {
            sc.host = value("--host=");
        } else if (arg.rfind("--port=", 0) == 0) {
            sc.port =
                static_cast<std::uint16_t>(std::stoul(value("--port=")));
        } else if (arg.rfind("--workers=", 0) == 0) {
            sc.workers = std::stoul(value("--workers="));
        } else if (arg.rfind("--impl=", 0) == 0) {
            const std::string v = value("--impl=");
            if (v == "simple")
                sc.machine.impl = Impl::Simple;
            else if (v == "mesa")
                sc.machine.impl = Impl::Mesa;
            else if (v == "ifu")
                sc.machine.impl = Impl::Ifu;
            else if (v == "banked")
                sc.machine.impl = Impl::Banked;
            else
                usage(argv[0]);
        } else if (arg.rfind("--linkage=", 0) == 0) {
            const std::string v = value("--linkage=");
            if (v == "fat")
                sc.plan.lowering = CallLowering::Fat;
            else if (v == "mesa")
                sc.plan.lowering = CallLowering::Mesa;
            else if (v == "direct")
                sc.plan.lowering = CallLowering::Direct;
            else
                usage(argv[0]);
        } else if (arg == "--short-calls") {
            sc.plan.shortCalls = true;
        } else if (arg.rfind("--banks=", 0) == 0) {
            sc.machine.numBanks = std::stoul(value("--banks="));
        } else if (arg.rfind("--timeslice=", 0) == 0) {
            sc.machine.timesliceSteps =
                std::stoull(value("--timeslice="));
        } else if (arg.rfind("--accel=", 0) == 0) {
            const auto on = parseAccelOption(value("--accel="));
            if (!on)
                usage(argv[0]);
            sc.machine.accel.enabled = *on;
        } else if (arg.rfind("--queue-capacity=", 0) == 0) {
            sc.queueCapacity =
                std::stoull(value("--queue-capacity="));
        } else if (arg.rfind("--max-inflight=", 0) == 0) {
            sc.maxInFlight = std::stoul(value("--max-inflight="));
        } else if (arg.rfind("--tenant=", 0) == 0) {
            std::string name;
            serve::TenantConfig config;
            if (!parseTenant(value("--tenant="), name, config))
                usage(argv[0]);
            sc.tenants[name] = config;
        } else if (arg.rfind("--default-weight=", 0) == 0) {
            sc.defaultTenant.weight =
                std::stod(value("--default-weight="));
        } else if (arg.rfind("--default-max-queued=", 0) == 0) {
            sc.defaultTenant.maxQueued =
                std::stoull(value("--default-max-queued="));
        } else if (arg.rfind("--default-cycles-per-window=", 0) == 0) {
            sc.defaultTenant.cyclesPerWindow =
                std::stoull(value("--default-cycles-per-window="));
        } else if (arg.rfind("--quota-window-ms=", 0) == 0) {
            sc.quotaWindowMs =
                std::stoull(value("--quota-window-ms="));
        } else if (arg.rfind("--preload=", 0) == 0) {
            const std::string v = value("--preload=");
            const auto eq = v.find('=');
            if (eq == std::string::npos || eq == 0)
                usage(argv[0]);
            opt.preloads.emplace_back(v.substr(0, eq),
                                      v.substr(eq + 1));
        } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
            sc.postmortemDir = value("--postmortem-dir=");
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            opt.metricsOut = value("--metrics-out=");
        } else if (arg.rfind("--metrics-interval=", 0) == 0) {
            sc.metricsInterval =
                std::stoull(value("--metrics-interval="));
        } else if (arg.rfind("--telemetry-mode=", 0) == 0) {
            const std::string v = value("--telemetry-mode=");
            if (v == "exact")
                sc.metricsSampled = false;
            else if (v == "sampled")
                sc.metricsSampled = true;
            else
                usage(argv[0]);
        } else if (arg.rfind("--openmetrics-out=", 0) == 0) {
            opt.openmetricsOut = value("--openmetrics-out=");
        } else if (arg.rfind("--spans-out=", 0) == 0) {
            opt.spansOut = value("--spans-out=");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opt.traceOut = value("--trace-out=");
        } else if (arg.rfind("--spans-capacity=", 0) == 0) {
            sc.spansCapacity =
                std::stoull(value("--spans-capacity="));
        } else if (arg.rfind("--probe=", 0) == 0) {
            sc.probeSpecs.push_back(value("--probe="));
        } else if (arg.rfind("--probe-out=", 0) == 0) {
            opt.probeOut = value("--probe-out=");
        } else if (arg.rfind("--slo=", 0) == 0) {
            const std::string v = value("--slo=");
            const auto colon = v.rfind(':');
            if (colon == std::string::npos || colon == 0)
                usage(argv[0]);
            try {
                opt.slos.emplace_back(
                    v.substr(0, colon),
                    std::stod(v.substr(colon + 1)));
            } catch (const std::exception &) {
                usage(argv[0]);
            }
            if (opt.slos.back().second <= 0)
                usage(argv[0]);
        } else if (arg.rfind("--log-level=", 0) == 0) {
            LogLevel level;
            if (!parseLogLevel(value("--log-level="), level))
                usage(argv[0]);
            setLogLevel(level);
        } else if (arg == "--help") {
            printUsage(std::cout, argv[0]);
            std::exit(0);
        } else {
            usage(argv[0]);
        }
    }
    sc.metrics = !opt.metricsOut.empty() || !opt.openmetricsOut.empty();
    // Applied after the loop so --slo composes with --tenant in
    // either order (--tenant=NAME:... replaces the whole config).
    for (const auto &[name, ms] : opt.slos) {
        if (sc.tenants.find(name) == sc.tenants.end())
            sc.tenants[name] = sc.defaultTenant;
        sc.tenants[name].sloMs = ms;
    }
    sc.spans = !opt.spansOut.empty() || !opt.traceOut.empty();
    sc.trace = !opt.traceOut.empty();
    // Spans are host-time only and do not demote anything.
    warnAccelDemoted("fpcserve", sc.machine.accel,
                     sc.trace || !sc.postmortemDir.empty(),
                     "--trace-out/--postmortem-dir");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);

    serve::Server server(opt.server);
    for (const auto &[name, file] : opt.preloads) {
        std::ifstream in(file);
        if (!in) {
            error("fpcserve: cannot open {}", file);
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        server.addProgram(
            name, std::make_shared<const std::vector<Module>>(
                      lang::compile(buffer.str())));
        inform("fpcserve: preloaded program '{}' from {}", name, file);
    }

    // Install the drain handler before the listener opens: a signal
    // racing startup still shuts down cleanly.
    serve::DrainSignal drain;
    server.start();
    inform("fpcserve: listening on {}:{} ({} workers, {})",
           opt.server.host, server.port(), opt.server.workers,
           implName(opt.server.machine.impl));

    // Everything else happens on the server's threads; the main
    // thread just waits for the drain signal.
    while (!drain.requested()) {
        pollfd pfd = {drain.fd(), POLLIN, 0};
        ::poll(&pfd, 1, -1);
    }

    inform("fpcserve: drain requested; finishing admitted jobs");
    server.stop();

    const stats::Histogram &lat = server.latencyHistogram();
    std::cout << "fpcserve: drained after " << server.jobsCompleted()
              << " job(s), " << server.jobsRejected()
              << " rejected, " << server.connectionsAccepted()
              << " connection(s); latency p50 "
              << stats::fixed(lat.p50(), 2) << " ms, p99 "
              << stats::fixed(lat.p99(), 2) << " ms\n";

    if (!opt.metricsOut.empty()) {
        std::ofstream out(opt.metricsOut);
        if (!out) {
            error("fpcserve: cannot write {}", opt.metricsOut);
            return 1;
        }
        server.writeMetricsJson(out);
    }
    if (!opt.openmetricsOut.empty()) {
        std::ofstream out(opt.openmetricsOut);
        if (!out) {
            error("fpcserve: cannot write {}", opt.openmetricsOut);
            return 1;
        }
        server.writeOpenMetrics(out);
    }
    if (!opt.spansOut.empty()) {
        std::ofstream out(opt.spansOut);
        if (!out) {
            error("fpcserve: cannot write {}", opt.spansOut);
            return 1;
        }
        server.writeSpansLog(out);
    }
    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        if (!out) {
            error("fpcserve: cannot write {}", opt.traceOut);
            return 1;
        }
        server.writeSpansTrace(out);
    }
    if (!opt.probeOut.empty()) {
        std::ofstream out(opt.probeOut);
        if (!out) {
            error("fpcserve: cannot write {}", opt.probeOut);
            return 1;
        }
        server.probes().writeJson(out, "fpcserve");
    }
    if (!server.spanFaults().empty())
        warn("fpcserve: span checker found {} fault(s)",
             server.spanFaults().size());
    return 0;
} catch (const std::exception &err) {
    error("fpcserve: {}", err.what());
    return 1;
}
