/**
 * @file
 * The serving runtime: a persistent, multi-tenant front end over the
 * pooled sched::Runtime.
 *
 * A Server owns a listening TCP socket, one thread per connection
 * speaking the fpc-serve-v1 protocol, and a worker pool with
 * long-lived per-worker machine contexts. Jobs pass through three
 * stages:
 *
 *   admission — bounded: a global queue cap, a per-tenant queue cap,
 *       and a per-tenant simulated-cycle quota per time window. Over
 *       any limit the client gets an explicit backpressure reply
 *       (REJECTED / OVER_QUOTA with a retry-after hint) instead of an
 *       unbounded queue;
 *   dispatch — deficit-round-robin across tenants (see
 *       DrrDispatcher), so a flooding tenant cannot starve the
 *       others: dispatch share follows configured weights, not
 *       arrival counts;
 *   completion — the worker's callback sends the result frame on the
 *       job's connection (replies are pipelined and may complete out
 *       of order; the request id correlates).
 *
 * drain() implements graceful shutdown: stop accepting, let admitted
 * jobs finish, answer late submits with DRAINING, then stop the pool.
 * scrapeText() exposes queue depth, per-tenant gauges and job-latency
 * percentiles as a strict OpenMetrics exposition at any moment while
 * serving.
 */

#ifndef FPC_SERVE_SERVER_HH
#define FPC_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/runtime.hh"
#include "serve/protocol.hh"
#include "serve/tenant.hh"
#include "stats/stats.hh"

namespace fpc::serve
{

struct ServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; read back via port()
    unsigned workers = 2;
    MachineConfig machine;
    LinkPlan plan;

    /** Jobs admitted but not yet dispatched, across all tenants. */
    std::size_t queueCapacity = 256;
    /** Jobs handed to the pool at once; 0 = one per worker (tenant
     *  queues hold the backlog, so fair dispatch stays responsive). */
    unsigned maxInFlight = 0;

    TenantConfig defaultTenant;
    std::map<std::string, TenantConfig> tenants;
    std::uint64_t quotaWindowMs = 1000;

    /** Job-latency histogram shape (milliseconds, admission to
     *  completion). */
    double latencyBucketMs = 0.25;
    std::size_t latencyBuckets = 1024;

    /** Machine-level telemetry per worker (exported after stop()). */
    bool metrics = false;
    Tick metricsInterval = obs::Telemetry::defaultInterval;
    std::size_t metricsCapacity = obs::Telemetry::defaultCapacity;

    /** Request-scoped span tracing (see obs::SpanCollector): every
     *  SUBMIT grows a request ⊃ admission/queued/dispatch/execute/
     *  reply tree, exported after stop() via writeSpansLog /
     *  writeSpansTrace. Host-time only: simulated stats and metrics
     *  are byte-identical with spans on or off. */
    bool spans = false;
    std::size_t spansCapacity = obs::SpanCollector::defaultCapacity;

    /** Per-worker XFER tracing on the pool (embedded into
     *  writeSpansTrace alongside the serve spans). */
    bool trace = false;
    std::size_t traceCapacity = obs::Tracer::defaultCapacity;

    /** When nonempty, failed jobs write postmortem bundles here and
     *  the result reply carries the bundle path. */
    std::string postmortemDir;

    /** Probe specs attached before start() (--probe=); clients can
     *  attach/detach/read more at runtime via the PROBE op. */
    std::vector<std::string> probeSpecs;

    std::string driver = "fpcserve";
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Register a named program clients can SUBMIT by name instead of
     *  shipping source. Call before start(). */
    void addProgram(const std::string &name,
                    std::shared_ptr<const std::vector<Module>> modules);

    /** Bind, listen, bring up the pool and the accept thread. Throws
     *  FatalError when the address is unusable. */
    void start();

    /** The bound port (after start(); resolves port 0). */
    std::uint16_t port() const { return port_; }

    /** Graceful shutdown, phase one: stop accepting connections,
     *  answer new SUBMITs with DRAINING, block until every admitted
     *  job has completed and replied. Idempotent. */
    void drain();

    /** drain(), then stop the pool and join every thread. The
     *  telemetry exports below are valid afterwards. Idempotent;
     *  also run by the destructor. */
    void stop();

    bool draining() const;

    /** The server-level OpenMetrics exposition (live at any point
     *  while serving — this is what SCRAPE returns). */
    std::string scrapeText() const;

    /** @name Span exports (ServerConfig::spans).
     *  The collector is live while serving; the log/trace writers and
     *  spanFaults() are meant for after stop(), which runs the
     *  well-bracketing checker (writing a span-bracketing postmortem
     *  bundle into postmortemDir on any fault). @{ */
    const obs::SpanCollector *spanCollector() const
    {
        return spans_.get();
    }
    void writeSpansLog(std::ostream &os) const;
    /** Perfetto JSON: serve tracks, plus the per-worker XFER tracks
     *  when ServerConfig::trace is on. */
    void writeSpansTrace(std::ostream &os) const;
    const std::vector<obs::SpanFault> &spanFaults() const
    {
        return spanFaults_;
    }
    /** @} */

    /** @name Machine-level telemetry (valid after stop() when
     *  ServerConfig::metrics was set). @{ */
    void writeMetricsJson(std::ostream &os) const;
    void writeOpenMetrics(std::ostream &os) const;
    /** @} */

    const sched::Runtime &runtime() const { return *runtime_; }

    /** The live probe registry (attach/detach/read; fpc-probes-v1 via
     *  ProbeRegistry::writeJson). Valid from construction. */
    obs::ProbeRegistry &probes() { return probes_; }
    const obs::ProbeRegistry &probes() const { return probes_; }

    /** @name Totals for drivers and tests. @{ */
    std::uint64_t jobsCompleted() const;
    std::uint64_t jobsRejected() const;
    std::uint64_t connectionsAccepted() const { return accepted_; }
    const stats::Histogram &latencyHistogram() const
    {
        return latency_;
    }
    /** @} */

  private:
    /** One client connection. Completions on worker threads and the
     *  connection's reader thread both write frames; writeMutex
     *  serializes them. The fd closes when the last reference
     *  drops. */
    struct Conn
    {
        ~Conn();
        int fd = -1;
        std::mutex writeMutex;
        std::atomic<bool> open{true};
        std::uint32_t track = 0; ///< span Connection-track index
    };

    /** An admitted job waiting in its tenant's queue. */
    struct Pending
    {
        std::uint32_t reqId = 0;
        std::shared_ptr<Conn> conn;
        std::string tenant;
        sched::Job job;
        std::chrono::steady_clock::time_point admitted;
        std::int64_t admittedNs = 0; ///< nowNs() at admission
        std::uint64_t requestId = 0; ///< server-assigned span id
        std::uint64_t traceId = 0;   ///< client correlation id
        std::uint32_t spanTenant = obs::noTenant;
    };

    struct TenantState
    {
        TenantConfig config;
        TenantCounters counters;
        std::deque<Pending> pending;

        /** Latency attribution (milliseconds), sampled per completed
         *  request whether or not span collection is on. */
        stats::Histogram queueWait; ///< admission → execution start
        stats::Histogram execute;   ///< execution start → end
        stats::Histogram reply;     ///< execution end → reply sent

        /** SLO bookkeeping (TenantConfig::sloMs). Window counters
         *  roll with the quota window; the burn rate smooths over the
         *  previous window plus the current one. */
        std::uint64_t sloGood = 0;
        std::uint64_t sloBad = 0;
        std::uint64_t windowGood = 0;
        std::uint64_t windowBad = 0;
        std::uint64_t prevWindowGood = 0;
        std::uint64_t prevWindowBad = 0;

        std::uint32_t spanTenant = obs::noTenant;
    };

    void acceptLoop();
    void connLoop(std::shared_ptr<Conn> conn);
    void handleSubmit(const std::shared_ptr<Conn> &conn,
                      SubmitRequest &&req);
    void handleProbe(const std::shared_ptr<Conn> &conn,
                     const ProbeRequest &req);
    void onComplete(const Pending &meta, sched::JobResult r);
    std::shared_ptr<const std::vector<Module>>
    resolveModules(const SubmitRequest &req, std::string &err);

    /** Dispatch queued jobs to the pool while capacity allows, in
     *  DRR order. Caller holds mutex_. */
    void pumpLocked();
    void rollWindowLocked();
    TenantState &tenantLocked(const std::string &name);
    std::uint32_t retryAfterLocked() const;
    void updateGaugesLocked();
    void sendReply(const std::shared_ptr<Conn> &conn,
                   const Reply &reply);
    static double burnRate(const TenantState &t);
    void updateTenantGaugesLocked();
    void checkSpansAtStop();

    ServerConfig config_;
    unsigned maxInFlight_ = 0;
    /** Lives above runtime_ so every in-flight engine folds before
     *  the registry dies. */
    obs::ProbeRegistry probes_;
    std::unique_ptr<sched::Runtime> runtime_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    int wakePipe_[2] = {-1, -1};
    std::thread acceptThread_;
    std::mutex connMutex_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<std::thread> connThreads_;
    bool acceptClosed_ = false; ///< under connMutex_

    // Serving state, under mutex_.
    mutable std::mutex mutex_;
    std::condition_variable drainedCv_;
    std::map<std::string, TenantState> tenants_;
    DrrDispatcher drr_;
    std::size_t queuedTotal_ = 0;
    unsigned inFlight_ = 0;
    bool draining_ = false;
    bool started_ = false;
    bool stopped_ = false;
    std::uint64_t jobsSubmitted_ = 0;
    std::uint64_t jobsCompleted_ = 0;
    std::uint64_t jobsFailed_ = 0;
    std::uint64_t rejectedQueue_ = 0;
    std::uint64_t rejectedQuota_ = 0;
    std::uint64_t rejectedDraining_ = 0;
    std::uint64_t badRequests_ = 0;
    stats::Histogram latency_;
    std::chrono::steady_clock::time_point windowStart_;

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> nextRequestId_{1};
    std::atomic<std::uint32_t> nextConnTrack_{0};

    std::unique_ptr<obs::SpanCollector> spans_;
    std::vector<obs::SpanFault> spanFaults_; ///< set by stop()

    // Mirrors for the (lock-free) telemetry gauge provider.
    std::atomic<double> gaugeQueue_{0};
    std::atomic<double> gaugeInFlight_{0};

    /** Per-tenant attribution/SLO gauges mirrored for the telemetry
     *  provider: rebuilt under mutex_ on completions, read on worker
     *  threads under its own lock so the sampler never takes
     *  mutex_. */
    mutable std::mutex tenantGaugeMutex_;
    std::vector<std::pair<std::string, double>> tenantGauges_;

    // Program registry and source-compile cache, under cacheMutex_.
    std::mutex cacheMutex_;
    std::map<std::string, std::shared_ptr<const std::vector<Module>>>
        programs_;
    std::map<std::string, std::shared_ptr<const std::vector<Module>>>
        sourceCache_;
};

} // namespace fpc::serve

#endif // FPC_SERVE_SERVER_HH
