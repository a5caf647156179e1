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

#include "common/logging.hh"
#include "lang/codegen.hh"
#include "options.hh"
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
    std::string metricsOut;
    std::string openmetricsOut;
    std::string spansOut;
    std::string traceOut;
    std::string probeOut;
};

/** "NAME:W[:Q[:C]]": tenant NAME gets weight W > 0, and optionally at
 *  most Q queued jobs and C cycles per quota window. */
bool
parseTenant(std::string_view spec, serve::ServerConfig &sc)
{
    std::vector<std::string> parts;
    std::istringstream ss{std::string(spec)};
    for (std::string part; std::getline(ss, part, ':');)
        parts.push_back(part);
    serve::TenantConfig config;
    if (parts.size() < 2 || parts.size() > 4 || parts[0].empty() ||
        !cli::parseNumber(parts[1], config.weight) ||
        !(config.weight > 0) ||
        (parts.size() >= 3 &&
         !cli::parseNumber(parts[2], config.maxQueued)) ||
        (parts.size() >= 4 &&
         !cli::parseNumber(parts[3], config.cyclesPerWindow)))
        return false;
    sc.tenants[parts[0]] = config;
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    serve::ServerConfig &sc = opt.server;
    std::vector<std::pair<std::string, double>> slos;
    cli::OptionTable t(
        argv[0], {"[options]"},
        "Probes given with --probe attach at start; clients attach and "
        "detach more live\nthrough the PROBE op (fpcprobe), and SCRAPE "
        "reports them as fpc_probe_*.\n");
    cli::addressOptions(t, sc.host, sc.port);
    cli::workersOption(t, sc.workers);
    cli::engineOptions(t, sc.machine, sc.plan);
    t.value("--queue-capacity", "N", "admitted-job bound across tenants",
            sc.queueCapacity);
    t.value("--max-inflight", "N",
            "jobs on the pool at once (0 = one per worker)",
            sc.maxInFlight);
    t.choice("--tenant", "NAME:W[:Q[:C]]",
             "tenant weight W, max queued Q, cycles/window C", "",
             [&sc](std::string_view v) { return parseTenant(v, sc); });
    t.choice("--slo", "NAME:MS",
             "tenant latency SLO target in ms (admission to reply)", "",
             [&slos](std::string_view v) {
                 const auto colon = v.rfind(':');
                 double ms = 0;
                 if (colon == std::string_view::npos || colon == 0 ||
                     !cli::parseNumber(v.substr(colon + 1), ms) || ms <= 0)
                     return false;
                 slos.emplace_back(v.substr(0, colon), ms);
                 return true;
             });
    serve::TenantConfig &dt = sc.defaultTenant;
    t.value("--default-weight", "W", "unconfigured-tenant DRR weight",
            dt.weight);
    t.value("--default-max-queued", "N", "unconfigured-tenant queue bound",
            dt.maxQueued);
    t.value("--default-cycles-per-window", "N",
            "unconfigured-tenant cycle quota (0 = off)",
            dt.cyclesPerWindow);
    t.value("--quota-window-ms", "N", "cycle-quota window",
            sc.quotaWindowMs);
    t.choice("--preload", "NAME=FILE.mm",
             "compile FILE.mm and serve it as program NAME", "",
             [&opt](std::string_view v) {
                 const auto eq = v.find('=');
                 if (eq == std::string_view::npos || eq == 0)
                     return false;
                 opt.preloads.emplace_back(v.substr(0, eq),
                                           v.substr(eq + 1));
                 return true;
             });
    cli::jobOptions(t, sc.metricsInterval, sc.postmortemDir,
                    sc.probeSpecs);
    // The exports land when a drain ends the daemon.
    t.value("--metrics-out", "FILE",
            "write per-worker fpc-metrics-v1 series at drain",
            opt.metricsOut);
    t.value("--openmetrics-out", "FILE",
            "write the series as OpenMetrics text at drain",
            opt.openmetricsOut);
    t.value("--spans-out", "FILE",
            "write request spans as fpc-spans-v1 at drain", opt.spansOut);
    t.value("--trace-out", "FILE",
            "write spans (plus per-worker XFER tracks) as Perfetto JSON "
            "at drain",
            opt.traceOut);
    t.value("--spans-capacity", "N", "span ring size, drop-oldest",
            sc.spansCapacity);
    t.value("--probe-out", "FILE",
            "write probe aggregations as fpc-probes-v1 at drain",
            opt.probeOut);
    cli::logOptions(t);
    if (!t.parse(argc, argv).empty())
        t.fail("fpcserve takes no positional arguments");
    if (!(dt.weight > 0))
        t.fail("--default-weight must be positive");

    sc.metrics = !opt.metricsOut.empty() || !opt.openmetricsOut.empty();
    // Applied after parsing so --slo composes with --tenant in either
    // order (--tenant=NAME:... replaces the whole config).
    for (const auto &[name, ms] : slos) {
        if (sc.tenants.find(name) == sc.tenants.end())
            sc.tenants[name] = sc.defaultTenant;
        sc.tenants[name].sloMs = ms;
    }
    sc.spans = !opt.spansOut.empty() || !opt.traceOut.empty();
    sc.trace = !opt.traceOut.empty();
    return opt;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parseArgs(argc, argv);
    // Spans are host-time only and do not demote anything.
    cli::warnAccelDemoted("fpcserve", opt.server.machine.accel,
                          opt.server.trace ||
                              !opt.server.postmortemDir.empty(),
                          "--trace-out/--postmortem-dir");

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
