#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "lang/codegen.hh"

namespace fpc::serve
{

namespace
{

/** OpenMetrics label-value escaping: backslash, quote, newline. */
std::string
labelEscape(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

Server::Conn::~Conn()
{
    if (fd >= 0)
        ::close(fd);
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      latency_(config_.latencyBucketMs > 0 ? config_.latencyBucketMs
                                           : 0.25,
               std::max<std::size_t>(1, config_.latencyBuckets))
{
    if (config_.workers == 0)
        config_.workers = 1;
    maxInFlight_ = config_.maxInFlight != 0 ? config_.maxInFlight
                                            : config_.workers;
    if (config_.spans)
        spans_ = std::make_unique<obs::SpanCollector>(
            std::max<std::size_t>(1, config_.spansCapacity));
}

Server::~Server()
{
    stop();
}

void
Server::addProgram(const std::string &name,
                   std::shared_ptr<const std::vector<Module>> modules)
{
    if (!modules || modules->empty())
        panic("Server::addProgram: program has no modules");
    std::lock_guard<std::mutex> lock(cacheMutex_);
    programs_[name] = std::move(modules);
}

void
Server::start()
{
    if (started_)
        panic("Server::start called twice");
    started_ = true;

    sched::RuntimeConfig rc;
    rc.workers = config_.workers;
    rc.machine = config_.machine;
    rc.plan = config_.plan;
    rc.metrics = config_.metrics;
    rc.metricsInterval = config_.metricsInterval;
    rc.metricsCapacity = config_.metricsCapacity;
    rc.postmortemDir = config_.postmortemDir;
    rc.driver = config_.driver;
    rc.spans = spans_.get();
    rc.trace = config_.trace;
    rc.traceCapacity = config_.traceCapacity;
    rc.gaugeProvider =
        [this](std::vector<std::pair<std::string, double>> &g) {
            g.emplace_back("serve_queue_depth", gaugeQueue_.load());
            g.emplace_back("serve_in_flight", gaugeInFlight_.load());
            std::lock_guard<std::mutex> lock(tenantGaugeMutex_);
            for (const auto &entry : tenantGauges_)
                g.push_back(entry);
            probes_.gauges(g);
        };
    if (!config_.probeSpecs.empty()) {
        std::string perr;
        if (!obs::attachProbeSpecs(probes_, config_.probeSpecs, perr))
            fatal("fpcserve: {}", perr);
    }
    rc.probes = &probes_;
    runtime_ = std::make_unique<sched::Runtime>(rc);
    runtime_->startPool();

    windowStart_ = std::chrono::steady_clock::now();
    {
        // Pre-register configured tenants so the scrape shows them
        // before their first request.
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : config_.tenants)
            tenantLocked(entry.first);
        tenantLocked("default");
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("fpcserve: socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1)
        fatal("fpcserve: bad listen address '{}'", config_.host);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("fpcserve: cannot bind {}:{}", config_.host,
              config_.port);
    if (::listen(listenFd_, 64) != 0)
        fatal("fpcserve: listen() failed");
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);

    if (::pipe(wakePipe_) != 0)
        fatal("fpcserve: pipe() failed");

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    while (true) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break; // drain/stop woke us
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            break;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->track = nextConnTrack_.fetch_add(1);
        std::lock_guard<std::mutex> lock(connMutex_);
        if (acceptClosed_) {
            break; // Conn destructor closes fd
        }
        conns_.push_back(conn);
        connThreads_.emplace_back(
            [this, conn] { connLoop(std::move(conn)); });
        accepted_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Server::connLoop(std::shared_ptr<Conn> conn)
{
    std::string payload;
    while (readFrame(conn->fd, payload)) {
        Request req;
        std::string err;
        if (!decodeRequest(payload, req, err)) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++badRequests_;
            }
            Reply reply;
            reply.status = Status::BadRequest;
            reply.error = err;
            sendReply(conn, reply);
            continue;
        }
        switch (req.op) {
          case ReqOp::Ping: {
            Reply reply;
            reply.status = Status::Pong;
            sendReply(conn, reply);
            break;
          }
          case ReqOp::Scrape: {
            Reply reply;
            reply.status = Status::ScrapeText;
            reply.text = scrapeText();
            sendReply(conn, reply);
            break;
          }
          case ReqOp::Submit:
            handleSubmit(conn, std::move(req.submit));
            break;
          case ReqOp::Probe:
            handleProbe(conn, req.probe);
            break;
        }
    }
    conn->open.store(false, std::memory_order_relaxed);
}

std::shared_ptr<const std::vector<Module>>
Server::resolveModules(const SubmitRequest &req, std::string &err)
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    if (!req.program.empty()) {
        auto it = programs_.find(req.program);
        if (it == programs_.end()) {
            err = "unknown program '" + req.program + "'";
            return nullptr;
        }
        return it->second;
    }
    if (req.source.empty()) {
        err = "SUBMIT carries neither a program name nor source";
        return nullptr;
    }
    auto it = sourceCache_.find(req.source);
    if (it != sourceCache_.end())
        return it->second;
    try {
        auto modules = std::make_shared<const std::vector<Module>>(
            lang::compile(req.source));
        sourceCache_[req.source] = modules;
        return modules;
    } catch (const std::exception &e) {
        err = e.what();
        return nullptr;
    }
}

void
Server::handleProbe(const std::shared_ptr<Conn> &conn,
                    const ProbeRequest &req)
{
    // Probe ops mutate only the registry: jobs already executing keep
    // the snapshot they compiled at dispatch and complete normally —
    // live attach/detach never drops an in-flight request.
    Reply reply;
    reply.reqId = req.reqId;
    switch (req.action) {
      case ProbeAction::Attach: {
        obs::ProbeSpec spec;
        std::string err;
        if (!obs::parseProbeSpec(req.spec, spec, err)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++badRequests_;
            reply.status = Status::BadRequest;
            reply.error = "bad probe spec: " + err;
            break;
        }
        reply.status = Status::ProbeText;
        reply.probeId = probes_.attach(std::move(spec));
        break;
      }
      case ProbeAction::Detach:
        if (!probes_.detach(req.id)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++badRequests_;
            reply.status = Status::BadRequest;
            reply.error =
                "no probe with id " + std::to_string(req.id);
            break;
        }
        reply.status = Status::ProbeText;
        reply.probeId = req.id;
        break;
      case ProbeAction::Read: {
        std::ostringstream os;
        probes_.writeJson(os, config_.driver);
        reply.status = Status::ProbeText;
        reply.text = os.str();
        break;
      }
    }
    sendReply(conn, reply);
}

void
Server::handleSubmit(const std::shared_ptr<Conn> &conn,
                     SubmitRequest &&req)
{
    Reply reply;
    reply.reqId = req.reqId;

    // The span tree roots at frame receipt: request ⊃ admission begin
    // together on the connection's track. Every SUBMIT gets a request
    // id whether or not it survives admission.
    const std::uint64_t rid = nextRequestId_.fetch_add(1);
    const std::string tenant =
        req.tenant.empty() ? "default" : req.tenant;
    std::uint32_t spanTenant = obs::noTenant;
    if (spans_) {
        const std::int64_t recvNs = obs::SpanCollector::nowNs();
        spanTenant = spans_->internTenant(tenant);
        spans_->begin(obs::SpanKind::Request, rid,
                      obs::SpanTrack::Connection, conn->track,
                      spanTenant, recvNs, req.traceId, req.reqId);
        spans_->begin(obs::SpanKind::Admission, rid,
                      obs::SpanTrack::Connection, conn->track,
                      spanTenant, recvNs, req.traceId, req.reqId);
    }
    // A request that never reaches the queue ends here: admission and
    // request both close as failed at the rejection decision.
    auto rejectSpans = [&] {
        if (!spans_)
            return;
        const std::int64_t t = obs::SpanCollector::nowNs();
        spans_->end(obs::SpanKind::Admission, rid, t, false);
        spans_->end(obs::SpanKind::Request, rid, t, false);
    };

    // Compilation / registry lookup happens outside the serving lock:
    // it can be slow, and completions must not wait on it.
    std::string err;
    auto modules = resolveModules(req, err);
    if (!modules) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++badRequests_;
        }
        rejectSpans();
        reply.status = Status::BadRequest;
        reply.error = err;
        sendReply(conn, reply);
        return;
    }

    std::string module = req.entryModule;
    if (module.empty()) {
        module = modules->front().name;
        for (const Module &m : *modules)
            if (m.name == "Main")
                module = "Main";
    }
    const std::string proc =
        req.entryProc.empty() ? "main" : req.entryProc;

    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (draining_) {
            ++rejectedDraining_;
            reply.status = Status::Draining;
            reply.error = "server is draining";
            lock.unlock();
            rejectSpans();
            sendReply(conn, reply);
            return;
        }
        rollWindowLocked();
        TenantState &t = tenantLocked(tenant);
        ++t.counters.submitted;
        ++jobsSubmitted_;
        if (t.config.cyclesPerWindow > 0 &&
            t.counters.windowCycles >= t.config.cyclesPerWindow) {
            ++t.counters.rejectedQuota;
            ++rejectedQuota_;
            reply.status = Status::OverQuota;
            const double left =
                static_cast<double>(config_.quotaWindowMs) -
                msSince(windowStart_);
            reply.retryAfterMs = static_cast<std::uint32_t>(
                std::clamp(left, 1.0, 1.0e6));
            reply.error = "tenant simulated-cycle quota exhausted";
            lock.unlock();
            rejectSpans();
            sendReply(conn, reply);
            return;
        }
        if (queuedTotal_ >= config_.queueCapacity) {
            ++t.counters.rejectedQueue;
            ++rejectedQueue_;
            reply.status = Status::Rejected;
            reply.retryAfterMs = retryAfterLocked();
            reply.error = "server queue full";
            lock.unlock();
            rejectSpans();
            sendReply(conn, reply);
            return;
        }
        if (t.pending.size() >= t.config.maxQueued) {
            ++t.counters.rejectedQueue;
            ++rejectedQueue_;
            reply.status = Status::Rejected;
            reply.retryAfterMs = retryAfterLocked();
            reply.error = "tenant queue full";
            lock.unlock();
            rejectSpans();
            sendReply(conn, reply);
            return;
        }

        Pending p;
        p.reqId = req.reqId;
        p.conn = conn;
        p.tenant = tenant;
        p.job.modules = std::move(modules);
        p.job.module = std::move(module);
        p.job.proc = proc;
        p.job.args = std::move(req.args);
        p.job.tenant = tenant;
        p.admitted = std::chrono::steady_clock::now();
        p.admittedNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                p.admitted.time_since_epoch())
                .count();
        p.requestId = rid;
        p.traceId = req.traceId;
        p.spanTenant = spanTenant;
        if (spans_) {
            // Admission ends where queueing begins — the shared
            // boundary timestamp keeps the phases an exact partition.
            p.job.span =
                obs::SpanRef{rid, req.traceId, spanTenant};
            spans_->end(obs::SpanKind::Admission, rid, p.admittedNs,
                        true);
            spans_->begin(obs::SpanKind::Queued, rid,
                          obs::SpanTrack::Tenant, spanTenant,
                          spanTenant, p.admittedNs, req.traceId,
                          req.reqId);
        }
        t.pending.push_back(std::move(p));
        t.counters.queued = t.pending.size();
        ++queuedTotal_;
        drr_.enqueue(tenant);
        pumpLocked();
        updateGaugesLocked();
    }
    // The reply comes from the completion callback once the job ran.
}

void
Server::pumpLocked()
{
    std::string tenant;
    while (inFlight_ < maxInFlight_ && drr_.pick(tenant)) {
        TenantState &t = tenants_.at(tenant);
        Pending p = std::move(t.pending.front());
        t.pending.pop_front();
        t.counters.queued = t.pending.size();
        --queuedTotal_;
        ++inFlight_;
        ++t.counters.inFlight;
        if (spans_ && p.requestId != 0) {
            // Queued ends at the DRR pick; dispatch runs until the
            // worker starts executing, which re-homes the tree onto
            // the executing worker's track (the track here is a
            // placeholder — the pool chooses the worker later).
            const std::int64_t pickNs = obs::SpanCollector::nowNs();
            spans_->endPhase(p.requestId, pickNs, true);
            spans_->begin(obs::SpanKind::Dispatch, p.requestId,
                          obs::SpanTrack::Worker, 0, p.spanTenant,
                          pickNs, p.traceId, p.reqId);
        }
        sched::Job job = std::move(p.job);
        auto meta = std::make_shared<Pending>(std::move(p));
        runtime_->enqueue(std::move(job),
                          [this, meta](sched::JobResult r) {
                              onComplete(*meta, std::move(r));
                          });
    }
}

void
Server::onComplete(const Pending &meta, sched::JobResult r)
{
    Reply reply;
    reply.reqId = meta.reqId;
    reply.status = Status::Ok;
    reply.jobOk = r.ok;
    reply.value = r.value;
    reply.stopReason = stopReasonName(r.reason);
    reply.error = r.error;
    reply.steps = r.steps;
    reply.cycles = r.cycles;
    if (!r.ok && !config_.postmortemDir.empty()) {
        reply.postmortem = config_.postmortemDir + "/job-" +
                           std::to_string(r.id) +
                           "-postmortem.json";
    }

    // Latency attribution: the worker stamped execStartNs/execEndNs
    // whether or not span collection is on (a canceled job leaves
    // them zero). The reply echoes the breakdown.
    const bool executed = r.execStartNs != 0;
    const double queueMs =
        executed ? std::max<double>(0, static_cast<double>(
                                           r.execStartNs -
                                           meta.admittedNs)) /
                       1e6
                 : 0;
    const double execMs =
        executed ? std::max<double>(0, static_cast<double>(
                                           r.execEndNs -
                                           r.execStartNs)) /
                       1e6
                 : 0;
    reply.spanId = meta.requestId;
    reply.queueNs = executed ? static_cast<std::uint64_t>(std::max<
                                   std::int64_t>(
                                   0, r.execStartNs - meta.admittedNs))
                             : 0;
    reply.execNs = executed ? static_cast<std::uint64_t>(std::max<
                                  std::int64_t>(
                                  0, r.execEndNs - r.execStartNs))
                            : 0;

    // Charge the books that admission reads BEFORE the reply goes
    // out: a client that resubmits the instant its Ok arrives must
    // see the quota already spent, not race the bookkeeping.
    const double ms = msSince(meta.admitted);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TenantState &t = tenantLocked(meta.tenant);
        ++t.counters.completed;
        ++jobsCompleted_;
        if (!r.ok) {
            ++t.counters.failed;
            ++jobsFailed_;
        }
        t.counters.windowCycles += r.cycles;
        latency_.sample(ms);
        if (executed) {
            t.queueWait.sample(queueMs);
            t.execute.sample(execMs);
        }
        if (t.config.sloMs > 0) {
            const bool good = r.ok && ms <= t.config.sloMs;
            if (good) {
                ++t.sloGood;
                ++t.windowGood;
            } else {
                ++t.sloBad;
                ++t.windowBad;
            }
        }
    }

    // The reply phase runs from execution end to the result frame
    // being on the wire; its close also closes the request span.
    // Reply before the in-flight count drops: once drain() returns,
    // every admitted job's result frame has been written.
    if (spans_ && meta.requestId != 0) {
        const std::int64_t replyStartNs =
            r.execEndNs != 0 ? r.execEndNs
                             : obs::SpanCollector::nowNs();
        spans_->begin(obs::SpanKind::Reply, meta.requestId,
                      obs::SpanTrack::Worker, r.worker,
                      meta.spanTenant, replyStartNs, meta.traceId,
                      meta.reqId);
        sendReply(meta.conn, reply);
        const std::int64_t sentNs = obs::SpanCollector::nowNs();
        spans_->end(obs::SpanKind::Reply, meta.requestId, sentNs,
                    true);
        spans_->end(obs::SpanKind::Request, meta.requestId, sentNs,
                    r.ok);
        std::lock_guard<std::mutex> lock(mutex_);
        tenantLocked(meta.tenant)
            .reply.sample(std::max<double>(
                              0, static_cast<double>(sentNs -
                                                     replyStartNs)) /
                          1e6);
    } else {
        sendReply(meta.conn, reply);
        if (executed) {
            const std::int64_t sentNs = obs::SpanCollector::nowNs();
            std::lock_guard<std::mutex> lock(mutex_);
            tenantLocked(meta.tenant)
                .reply.sample(
                    std::max<double>(
                        0, static_cast<double>(sentNs - r.execEndNs)) /
                    1e6);
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    --tenantLocked(meta.tenant).counters.inFlight;
    pumpLocked();
    updateGaugesLocked();
    updateTenantGaugesLocked();
    if (draining_ && queuedTotal_ == 0 && inFlight_ == 0)
        drainedCv_.notify_all();
}

void
Server::rollWindowLocked()
{
    const auto window =
        std::chrono::milliseconds(config_.quotaWindowMs);
    const auto now = std::chrono::steady_clock::now();
    if (now - windowStart_ < window)
        return;
    while (now - windowStart_ >= window)
        windowStart_ += window;
    for (auto &entry : tenants_) {
        TenantState &t = entry.second;
        t.counters.windowCycles = 0;
        // SLO burn-rate smoothing: the gauge reads the previous
        // window plus the current one, so a fresh window doesn't
        // reset the rate to zero.
        t.prevWindowGood = t.windowGood;
        t.prevWindowBad = t.windowBad;
        t.windowGood = 0;
        t.windowBad = 0;
    }
}

Server::TenantState &
Server::tenantLocked(const std::string &name)
{
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
        TenantState ts;
        auto cfg = config_.tenants.find(name);
        ts.config = cfg != config_.tenants.end()
                        ? cfg->second
                        : config_.defaultTenant;
        const double width = config_.latencyBucketMs > 0
                                 ? config_.latencyBucketMs
                                 : 0.25;
        const std::size_t buckets =
            std::max<std::size_t>(1, config_.latencyBuckets);
        ts.queueWait = stats::Histogram(width, buckets);
        ts.execute = stats::Histogram(width, buckets);
        ts.reply = stats::Histogram(width, buckets);
        if (spans_)
            ts.spanTenant = spans_->internTenant(name);
        it = tenants_.emplace(name, std::move(ts)).first;
        drr_.setQuantum(name, it->second.config.weight);
    }
    return it->second;
}

std::uint32_t
Server::retryAfterLocked() const
{
    // Estimate: the backlog's expected drain time at the observed
    // mean job latency (or a nominal 10ms before any completions).
    const double perJob =
        latency_.count() > 0 ? latency_.mean() : 10.0;
    const double backlog =
        static_cast<double>(queuedTotal_ + inFlight_);
    const double est =
        perJob * backlog / static_cast<double>(config_.workers);
    return static_cast<std::uint32_t>(std::clamp(est, 1.0, 30000.0));
}

void
Server::updateGaugesLocked()
{
    gaugeQueue_.store(static_cast<double>(queuedTotal_));
    gaugeInFlight_.store(static_cast<double>(inFlight_));
}

void
Server::sendReply(const std::shared_ptr<Conn> &conn,
                  const Reply &reply)
{
    if (!conn->open.load(std::memory_order_relaxed))
        return;
    const std::string payload = encodeReply(reply);
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (!writeFrame(conn->fd, payload))
        conn->open.store(false, std::memory_order_relaxed);
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

std::string
Server::scrapeText() const
{
    std::ostringstream os;
    std::lock_guard<std::mutex> lock(mutex_);

    auto gauge = [&os](const char *name, const char *help,
                       double value) {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " gauge\n"
           << name << " " << value << "\n";
    };
    auto counter = [&os](const char *name, const char *help,
                         std::uint64_t value) {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " counter\n"
           << name << "_total " << value << "\n";
    };

    gauge("fpc_serve_queue_depth",
          "Jobs admitted but not yet dispatched.",
          static_cast<double>(queuedTotal_));
    gauge("fpc_serve_in_flight", "Jobs currently on the pool.",
          static_cast<double>(inFlight_));
    gauge("fpc_serve_workers", "Pool worker threads.",
          static_cast<double>(config_.workers));
    gauge("fpc_serve_draining", "1 while the server drains.",
          draining_ ? 1.0 : 0.0);
    counter("fpc_serve_connections", "Connections accepted.",
            accepted_.load(std::memory_order_relaxed));
    counter("fpc_serve_jobs_submitted", "SUBMIT requests received.",
            jobsSubmitted_);
    counter("fpc_serve_jobs_completed", "Jobs run to completion.",
            jobsCompleted_);
    counter("fpc_serve_jobs_failed",
            "Completed jobs that stopped on an error.", jobsFailed_);
    counter("fpc_serve_rejected_queue",
            "Submits rejected by a queue bound.", rejectedQueue_);
    counter("fpc_serve_rejected_quota",
            "Submits rejected by a tenant cycle quota.",
            rejectedQuota_);
    counter("fpc_serve_rejected_draining",
            "Submits answered DRAINING during shutdown.",
            rejectedDraining_);
    counter("fpc_serve_bad_requests",
            "Frames that failed to decode or resolve.", badRequests_);
    gauge("fpc_serve_job_latency_ms_p50",
          "Median job latency, admission to completion.",
          latency_.p50());
    gauge("fpc_serve_job_latency_ms_p90", "90th percentile latency.",
          latency_.p90());
    gauge("fpc_serve_job_latency_ms_p99", "99th percentile latency.",
          latency_.p99());
    gauge("fpc_serve_job_latency_ms_mean", "Mean job latency.",
          latency_.mean());

    // Per-tenant families: one HELP/TYPE header, one labeled sample
    // per tenant.
    auto tenantGauge =
        [&](const char *name, const char *help,
            double (*get)(const TenantState &)) {
            os << "# HELP " << name << " " << help << "\n"
               << "# TYPE " << name << " gauge\n";
            for (const auto &entry : tenants_) {
                os << name << "{tenant=\""
                   << labelEscape(entry.first) << "\"} "
                   << get(entry.second) << "\n";
            }
        };
    auto tenantCounter =
        [&](const char *name, const char *help,
            std::uint64_t (*get)(const TenantState &)) {
            os << "# HELP " << name << " " << help << "\n"
               << "# TYPE " << name << " counter\n";
            for (const auto &entry : tenants_) {
                os << name << "_total{tenant=\""
                   << labelEscape(entry.first) << "\"} "
                   << get(entry.second) << "\n";
            }
        };
    tenantGauge("fpc_serve_tenant_queued",
                "Jobs waiting in the tenant's queue.",
                [](const TenantState &t) {
                    return static_cast<double>(t.counters.queued);
                });
    tenantGauge("fpc_serve_tenant_in_flight",
                "The tenant's jobs on the pool.",
                [](const TenantState &t) {
                    return static_cast<double>(t.counters.inFlight);
                });
    tenantGauge("fpc_serve_tenant_weight", "DRR dispatch weight.",
                [](const TenantState &t) { return t.config.weight; });
    tenantGauge("fpc_serve_tenant_window_cycles",
                "Simulated cycles spent in the current quota window.",
                [](const TenantState &t) {
                    return static_cast<double>(
                        t.counters.windowCycles);
                });
    tenantCounter("fpc_serve_tenant_submitted",
                  "SUBMITs received for the tenant.",
                  [](const TenantState &t) {
                      return t.counters.submitted;
                  });
    tenantCounter("fpc_serve_tenant_completed",
                  "The tenant's jobs run to completion.",
                  [](const TenantState &t) {
                      return t.counters.completed;
                  });
    tenantCounter("fpc_serve_tenant_rejected",
                  "The tenant's submits rejected (queue or quota).",
                  [](const TenantState &t) {
                      return t.counters.rejectedQueue +
                             t.counters.rejectedQuota;
                  });

    // Latency attribution: one histogram family per phase with
    // coarse cumulative buckets, plus percentile gauges. The
    // underlying fine-grained linear histograms stay internal; the
    // exposition re-buckets them at standard boundaries.
    static const double boundsMs[] = {1,  2,  5,   10,  20,
                                      50, 100, 250, 1000};
    auto cumulative = [](const stats::Histogram &h, double bound) {
        // Samples in buckets that lie entirely at or below the
        // bound; exact per-bucket, monotone in the bound.
        std::uint64_t c = 0;
        const double w = h.bucketWidth();
        for (std::size_t i = 0; i < h.buckets(); ++i) {
            if (static_cast<double>(i + 1) * w > bound + 1e-9)
                break;
            c += h.bucketCount(i);
        }
        return c;
    };
    auto tenantHistogram =
        [&](const char *name, const char *help,
            const stats::Histogram &(*get)(const TenantState &)) {
            os << "# HELP " << name << " " << help << "\n"
               << "# TYPE " << name << " histogram\n";
            for (const auto &entry : tenants_) {
                const stats::Histogram &h = get(entry.second);
                const std::string tenant =
                    labelEscape(entry.first);
                for (double b : boundsMs)
                    os << name << "_bucket{tenant=\"" << tenant
                       << "\",le=\"" << b << "\"} "
                       << cumulative(h, b) << "\n";
                os << name << "_bucket{tenant=\"" << tenant
                   << "\",le=\"+Inf\"} " << h.count() << "\n";
                os << name << "_sum{tenant=\"" << tenant << "\"} "
                   << (h.count() > 0 ? h.mean() *
                                           static_cast<double>(
                                               h.count())
                                     : 0.0)
                   << "\n";
                os << name << "_count{tenant=\"" << tenant << "\"} "
                   << h.count() << "\n";
            }
        };
    tenantHistogram("fpc_serve_tenant_queue_wait_ms",
                    "Admission to execution start, per completed job.",
                    [](const TenantState &t) -> const stats::
                        Histogram & { return t.queueWait; });
    tenantHistogram("fpc_serve_tenant_execute_ms",
                    "Execution start to end, per completed job.",
                    [](const TenantState &t) -> const stats::
                        Histogram & { return t.execute; });
    tenantHistogram("fpc_serve_tenant_reply_ms",
                    "Execution end to the reply on the wire.",
                    [](const TenantState &t) -> const stats::
                        Histogram & { return t.reply; });
    tenantGauge("fpc_serve_tenant_queue_wait_p50_ms",
                "Median queue wait.", [](const TenantState &t) {
                    return t.queueWait.p50();
                });
    tenantGauge("fpc_serve_tenant_queue_wait_p90_ms",
                "90th percentile queue wait.",
                [](const TenantState &t) {
                    return t.queueWait.p90();
                });
    tenantGauge("fpc_serve_tenant_queue_wait_p99_ms",
                "99th percentile queue wait.",
                [](const TenantState &t) {
                    return t.queueWait.p99();
                });
    tenantGauge("fpc_serve_tenant_execute_p50_ms",
                "Median execute time.", [](const TenantState &t) {
                    return t.execute.p50();
                });
    tenantGauge("fpc_serve_tenant_execute_p90_ms",
                "90th percentile execute time.",
                [](const TenantState &t) { return t.execute.p90(); });
    tenantGauge("fpc_serve_tenant_execute_p99_ms",
                "99th percentile execute time.",
                [](const TenantState &t) { return t.execute.p99(); });
    tenantGauge("fpc_serve_tenant_reply_p50_ms",
                "Median reply time.",
                [](const TenantState &t) { return t.reply.p50(); });
    tenantGauge("fpc_serve_tenant_reply_p90_ms",
                "90th percentile reply time.",
                [](const TenantState &t) { return t.reply.p90(); });
    tenantGauge("fpc_serve_tenant_reply_p99_ms",
                "99th percentile reply time.",
                [](const TenantState &t) { return t.reply.p99(); });

    // SLO families appear once any tenant has a target; samples only
    // for tenants with one.
    bool anySlo = false;
    for (const auto &entry : tenants_)
        if (entry.second.config.sloMs > 0)
            anySlo = true;
    if (anySlo) {
        auto sloGauge = [&](const char *name, const char *help,
                            double (*get)(const TenantState &)) {
            os << "# HELP " << name << " " << help << "\n"
               << "# TYPE " << name << " gauge\n";
            for (const auto &entry : tenants_)
                if (entry.second.config.sloMs > 0)
                    os << name << "{tenant=\""
                       << labelEscape(entry.first) << "\"} "
                       << get(entry.second) << "\n";
        };
        auto sloCounter =
            [&](const char *name, const char *help,
                std::uint64_t (*get)(const TenantState &)) {
                os << "# HELP " << name << " " << help << "\n"
                   << "# TYPE " << name << " counter\n";
                for (const auto &entry : tenants_)
                    if (entry.second.config.sloMs > 0)
                        os << name << "_total{tenant=\""
                           << labelEscape(entry.first) << "\"} "
                           << get(entry.second) << "\n";
            };
        sloGauge("fpc_serve_slo_target_ms",
                 "Latency SLO target (admission to reply).",
                 [](const TenantState &t) { return t.config.sloMs; });
        sloCounter("fpc_serve_slo_good",
                   "Completed requests at or under the SLO target.",
                   [](const TenantState &t) { return t.sloGood; });
        sloCounter("fpc_serve_slo_bad",
                   "Completed requests over the SLO target (or "
                   "failed).",
                   [](const TenantState &t) { return t.sloBad; });
        sloGauge("fpc_serve_slo_burn_rate",
                 "Error-budget burn rate over the last two quota "
                 "windows (1 = burning exactly the 1% budget).",
                 [](const TenantState &t) { return burnRate(t); });
    }

    // Host-acceleration internals, folded per completed job (live
    // mid-run, unlike the post-stop accelStats()). Host-side only:
    // they describe the accelerator, never simulated behavior.
    if (config_.machine.accel.enabled) {
        const AccelStats a = runtime_->liveAccelStats();
        gauge("fpc_serve_accel_icache_hit_rate",
              "Host predecode cache hit rate.", a.icacheHitRate());
        gauge("fpc_serve_accel_link_hit_rate",
              "Host XFER link cache hit rate.", a.linkHitRate());
        gauge("fpc_serve_accel_chain_rate",
              "Superblock transitions served by the inline chain "
              "pointer, per execution.",
              a.chainRate());
        counter("fpc_serve_accel_sblock_execs",
                "Superblock executions (threaded backend).",
                a.sblockExecs);
        counter("fpc_serve_accel_fusion_hits",
                "Fused superinstruction executions (threaded "
                "backend).",
                a.sblockFusionHits);
        counter("fpc_serve_accel_deferred_flushes",
                "Deferred-accounting folds into MachineStats.",
                a.deferredFlushes);
        counter("fpc_serve_accel_probe_sites",
                "Probe code ranges armed at sink attach.",
                a.probeSites);
        counter("fpc_serve_accel_probe_deopt_blocks",
                "Superblocks invalidated by probe arming.",
                a.probeDeoptBlocks);
        counter("fpc_serve_accel_probe_eager_steps",
                "Instructions taken on the exact eager path inside "
                "armed probe ranges.",
                a.probeEagerSteps);
    }

    if (spans_) {
        counter("fpc_serve_spans_recorded",
                "Spans closed into the ring buffer.",
                spans_->recorded());
        counter("fpc_serve_spans_dropped",
                "Spans evicted from the full ring (oldest first).",
                spans_->dropped());
        counter("fpc_serve_span_faults",
                "Span bracketing violations detected.",
                spans_->faultCount());
        gauge("fpc_serve_spans_open",
              "Requests with a span currently open.",
              static_cast<double>(spans_->openCount()));
    }

    // Dynamic probe aggregations, live against the registry's merged
    // totals. All-gauge families (a probe can detach and re-attach,
    // so monotonicity is not guaranteed); one labeled sample per
    // attached probe.
    {
        const auto probes = probes_.read();
        gauge("fpc_probe_attached", "Probes currently attached.",
              static_cast<double>(probes.size()));
        if (!probes.empty()) {
            os << "# HELP fpc_probe_hits Events matched per attached "
                  "probe.\n"
               << "# TYPE fpc_probe_hits gauge\n";
            for (const auto &[e, agg] : probes)
                os << "fpc_probe_hits{id=\"" << e.id << "\",spec=\""
                   << labelEscape(e.spec.text) << "\"} " << agg.hits
                   << "\n";
        }
        auto distFamily = [&](const char *name, const char *help,
                              obs::ProbeAction action) {
            bool any = false;
            for (const auto &entry : probes)
                if (entry.first.spec.action == action)
                    any = true;
            if (!any)
                return;
            os << "# HELP " << name << " " << help << "\n"
               << "# TYPE " << name << " gauge\n";
            for (const auto &[e, agg] : probes) {
                if (e.spec.action != action)
                    continue;
                double v = 0.0;
                if (agg.dist.count() != 0)
                    v = action == obs::ProbeAction::Sum
                            ? agg.dist.total()
                        : action == obs::ProbeAction::Min
                            ? agg.dist.min()
                            : agg.dist.max();
                os << name << "{id=\"" << e.id << "\"} " << v << "\n";
            }
        };
        distFamily("fpc_probe_value_sum",
                   "Sum of the probe's expression over matches.",
                   obs::ProbeAction::Sum);
        distFamily("fpc_probe_value_min",
                   "Minimum of the probe's expression over matches.",
                   obs::ProbeAction::Min);
        distFamily("fpc_probe_value_max",
                   "Maximum of the probe's expression over matches.",
                   obs::ProbeAction::Max);
        bool anyQuant = false;
        for (const auto &entry : probes)
            if (entry.first.spec.action == obs::ProbeAction::Quantize)
                anyQuant = true;
        if (anyQuant) {
            // pow="k": bucket k counts values in [2^(k-1), 2^k)
            // (pow="0" counts exact zeros); zero buckets elided.
            os << "# HELP fpc_probe_quantize_bucket Log2 histogram "
                  "of the probe's expression.\n"
               << "# TYPE fpc_probe_quantize_bucket gauge\n";
            for (const auto &[e, agg] : probes) {
                if (e.spec.action != obs::ProbeAction::Quantize)
                    continue;
                for (std::size_t b = 0;
                     b < agg.quant.buckets.size(); ++b) {
                    if (agg.quant.buckets[b] == 0)
                        continue;
                    os << "fpc_probe_quantize_bucket{id=\"" << e.id
                       << "\",pow=\"" << b << "\"} "
                       << agg.quant.buckets[b] << "\n";
                }
            }
        }
    }

    os << "# EOF\n";
    return os.str();
}

void
Server::drain()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
    }
    // Wake the accept loop; it exits and no new connections land.
    if (wakePipe_[1] >= 0) {
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], "x", 1);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    drainedCv_.wait(lock, [this] {
        return queuedTotal_ == 0 && inFlight_ == 0;
    });
}

double
Server::burnRate(const TenantState &t)
{
    // Fraction of requests blowing the SLO over the previous window
    // plus the current one, normalized by the 1% error budget: 1.0
    // means burning the budget exactly, 100 means everything is bad.
    const double good = static_cast<double>(t.prevWindowGood +
                                            t.windowGood);
    const double bad =
        static_cast<double>(t.prevWindowBad + t.windowBad);
    const double total = good + bad;
    if (total <= 0)
        return 0;
    return (bad / total) / 0.01;
}

void
Server::updateTenantGaugesLocked()
{
    // Rebuild the telemetry-provider mirror. Caller holds mutex_;
    // tenantGaugeMutex_ nests inside it (the provider takes only the
    // inner lock, so samplers never contend on mutex_).
    std::vector<std::pair<std::string, double>> g;
    for (const auto &entry : tenants_) {
        const TenantState &t = entry.second;
        if (t.counters.completed == 0 && t.config.sloMs <= 0)
            continue;
        const std::string base = "serve_tenant_" + entry.first + "_";
        g.emplace_back(base + "queue_wait_p50_ms", t.queueWait.p50());
        g.emplace_back(base + "queue_wait_p99_ms", t.queueWait.p99());
        g.emplace_back(base + "execute_p50_ms", t.execute.p50());
        g.emplace_back(base + "execute_p99_ms", t.execute.p99());
        if (t.config.sloMs > 0)
            g.emplace_back(base + "slo_burn_rate", burnRate(t));
    }
    std::lock_guard<std::mutex> lock(tenantGaugeMutex_);
    tenantGauges_ = std::move(g);
}

void
Server::checkSpansAtStop()
{
    if (!spans_)
        return;
    // checkSpans combines the collector's recorded discipline faults,
    // open-at-check spans (everything has drained, so those are real
    // leaks) and structural violations over the retained spans.
    spanFaults_ = obs::checkSpans(*spans_);
    if (!spanFaults_.empty()) {
        warn("fpcserve: {} span bracketing fault(s) detected",
             spanFaults_.size());
        if (!config_.postmortemDir.empty())
            obs::writeSpanPostmortem(config_.postmortemDir, "serve-",
                                     config_.driver, spanFaults_,
                                     *spans_);
    }
}

void
Server::writeSpansLog(std::ostream &os) const
{
    if (!spans_)
        return;
    obs::writeSpansLog(os, config_.driver, *spans_);
}

void
Server::writeSpansTrace(std::ostream &os) const
{
    if (!spans_)
        return;
    std::vector<const obs::Tracer *> xfer;
    if (config_.trace && runtime_)
        xfer = runtime_->tracers();
    obs::writeSpansPerfetto(os, *spans_, xfer);
}

void
Server::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    drain();
    runtime_->stopPool();
    checkSpansAtStop();
    if (acceptThread_.joinable())
        acceptThread_.join();

    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        acceptClosed_ = true;
        for (const auto &c : conns_) {
            c->open.store(false, std::memory_order_relaxed);
            ::shutdown(c->fd, SHUT_RDWR);
        }
        threads.swap(connThreads_);
    }
    for (std::thread &t : threads)
        t.join();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.clear();
    }

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (wakePipe_[0] >= 0) {
        ::close(wakePipe_[0]);
        ::close(wakePipe_[1]);
        wakePipe_[0] = wakePipe_[1] = -1;
    }
}

void
Server::writeMetricsJson(std::ostream &os) const
{
    runtime_->writeMetricsJson(os);
}

void
Server::writeOpenMetrics(std::ostream &os) const
{
    runtime_->writeOpenMetrics(os);
}

std::uint64_t
Server::jobsCompleted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobsCompleted_;
}

std::uint64_t
Server::jobsRejected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejectedQueue_ + rejectedQuota_ + rejectedDraining_;
}

} // namespace fpc::serve
