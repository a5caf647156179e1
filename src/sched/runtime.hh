/**
 * @file
 * Layer 2 of the runtime: a pool of OS worker threads, each running
 * an independent Machine, pulling jobs from a shared queue.
 *
 * The simulated processor is single-threaded by construction (one
 * Memory, one register file), so throughput comes from running many
 * of them: each worker owns a private Memory/LoadedImage/Machine per
 * job, executes it to completion, and folds its MachineStats and a
 * per-worker stat registry into the runtime's merged view at join.
 * Jobs are compiled MiniMesa programs (or generated synthetic ones);
 * with MachineConfig::timesliceSteps set, every worker also exercises
 * the in-VM preemption path, so the throughput numbers include the
 * process-switch overhead the paper's §7.1 fallback prescribes.
 */

#ifndef FPC_SCHED_RUNTIME_HH
#define FPC_SCHED_RUNTIME_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "machine/machine.hh"
#include "obs/probes.hh"
#include "obs/profile.hh"
#include "obs/sampled_profile.hh"
#include "obs/spans.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "program/loader.hh"
#include "program/module.hh"
#include "replay/record.hh"
#include "stats/stats.hh"

namespace fpc::sched
{

/** One unit of work: run modules' Mod.proc(args) to completion. The
 *  module list is shared — many jobs typically run one program. */
struct Job
{
    Job() = default;
    Job(std::shared_ptr<const std::vector<Module>> modules_,
        std::string module_, std::string proc_,
        std::vector<Word> args_, obs::SpanRef span_ = {})
        : modules(std::move(modules_)), module(std::move(module_)),
          proc(std::move(proc_)), args(std::move(args_)), span(span_)
    {
    }

    std::shared_ptr<const std::vector<Module>> modules;
    std::string module;
    std::string proc;
    std::vector<Word> args;

    /** Owning tenant (serving mode); probe `tenant ==` predicates
     *  match against it. Empty in batch mode. */
    std::string tenant;

    /** Span propagation context (see obs::SpanRef). When requestId is
     *  nonzero the serving layer owns the request/admission/queued/
     *  dispatch/reply brackets and the runtime only brackets execute
     *  (closing the open dispatch phase at execution start); when
     *  zero and RuntimeConfig::spans is set, the runtime synthesizes
     *  a request ⊃ queued ⊃ execute tree itself (batch mode). */
    obs::SpanRef span;
};

/** What became of one job. */
struct JobResult
{
    unsigned id = 0;
    unsigned worker = 0;
    bool ok = false;
    StopReason reason = StopReason::Running;
    Word value = 0;       ///< top-level return value, when ok
    std::string error;    ///< failure message, when !ok
    std::uint64_t steps = 0;
    Tick cycles = 0;

    /** Host steady-clock brackets of the execution itself
     *  (obs::SpanCollector::nowNs() epoch), stamped whether or not
     *  span collection is on; 0/0 for canceled jobs that never ran.
     *  The serving layer derives queue-wait/execute attribution from
     *  these without re-reading clocks. */
    std::int64_t execStartNs = 0;
    std::int64_t execEndNs = 0;
};

/** Delivered with a pool-mode job's result, on the worker thread that
 *  ran it. Must not block for long — the worker is the pool's
 *  capacity — but may call Runtime::enqueue to chain more work. */
using JobCompletion = std::function<void(JobResult)>;

struct RuntimeConfig
{
    unsigned workers = 1;
    MachineConfig machine;
    LinkPlan plan;

    /** Cooperative cancellation: when non-null and set, workers stop
     *  starting jobs — anything not yet begun completes immediately
     *  as failed ("canceled: drain requested") — but every job still
     *  gets a result and the merged stats stay valid. Drivers point
     *  this at their SIGINT/SIGTERM flag. */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Extra gauges appended to every worker's telemetry samples when
     *  metrics are on (the serving layer injects queue depth and
     *  tenant gauges this way). Called on worker threads, so it must
     *  be thread-safe. */
    obs::Telemetry::GaugeProvider gaugeProvider;

    /** Record per-worker XFER traces (see obs::Tracer). In batch
     *  run() this forces the static job-to-worker assignment (job i →
     *  worker i mod stride, jobs_stolen structurally zero) so tracks
     *  are byte-identical across runs. Pool mode records too, with a
     *  different determinism contract: a job's whole trace (and its
     *  spans) land on the track of the worker that executed it —
     *  JobResult::worker — so work stealing re-homes the job to the
     *  stealing worker's track; tracks are stable given the
     *  execution, not across executions. */
    bool trace = false;
    std::size_t traceCapacity = obs::Tracer::defaultCapacity;

    /** Span sink shared with the serving layer (may be null). Spans
     *  are host-time only: collection never touches the Machine, so
     *  simulated stats/metrics are byte-identical with spans on or
     *  off and span collection adds zero simulated cycles. */
    obs::SpanCollector *spans = nullptr;

    /** Attribute cycles to procedures (merged across all jobs). */
    bool profile = false;

    /** Sampled (accel-safe) profiling: attribute cycle shares from
     *  exact-grid cycle samples (see obs::SampledProfiler) instead of
     *  XFER observation, so the accel fast paths keep running. The
     *  profiler attaches beside telemetry and recording on its own
     *  grid and changes neither. Merged across all jobs; it does not
     *  force the static assignment. */
    bool profileSampled = false;
    /** Simulated-cycle budget between profile samples. Prime by
     *  default so tight loops don't alias the sampling clock. */
    Tick sampleInterval = 9973;

    /** Record a per-worker metrics time series (see obs::Telemetry):
     *  each job is sampled every metricsInterval simulated cycles and
     *  bracketed with a start and end snapshot; consecutive jobs lay
     *  out consecutively on their worker's series. Forces the static
     *  job-to-worker assignment so the series are reproducible. */
    bool metrics = false;
    Tick metricsInterval = obs::Telemetry::defaultInterval;
    std::size_t metricsCapacity = obs::Telemetry::defaultCapacity;

    /** When nonempty, every failed job writes a postmortem bundle
     *  ("job-<id>-postmortem.json" + disassembly) into this
     *  directory. Forces the static assignment, like trace. */
    std::string postmortemDir;

    /** Record every job's execution history (scheduler decisions +
     *  periodic state digests on metricsInterval) into a
     *  replay::JobRecord, retrievable with jobRecords() after run().
     *  Forces the static assignment so job→worker mapping — part of
     *  the fpc-record-v1 header — is reproducible. */
    bool record = false;

    /** Dynamic probes (see obs/probes.hh). When non-null and active,
     *  every job compiles the registry's current snapshot against its
     *  image, attaches a ProbeEngine as the machine's ProbeSink (which
     *  selectively deoptimizes only the armed code ranges under the
     *  accelerated backends), and folds its aggregation buffers back
     *  at completion. Probes are host-time only — simulated stats /
     *  metrics / traces stay byte-identical with any probe set
     *  attached — but batch run() forces the static job-to-worker
     *  assignment while probes are attached so fpc-probes-v1 capture
     *  rings are reproducible. */
    obs::ProbeRegistry *probes = nullptr;

    /** Identity stamped into metrics/postmortem exports. */
    std::string driver = "runtime";
};

/**
 * The multi-worker runtime, usable two ways.
 *
 * Batch mode (the original shape): submit() jobs, then run() once;
 * results come back in job order, and the merged statistics describe
 * all workers together.
 *
 * Pool mode (the serving shape): startPool() brings up long-lived
 * workers, enqueue() hands each job a completion callback, and
 * stopPool() drains and joins. Each worker keeps one reusable
 * execution context — the Memory allocation and Machine survive
 * across jobs (the store is zeroed and the image reloaded, so
 * simulated behavior is identical to a fresh machine) — and idle
 * workers steal from the back-logged ones's deques.
 */
class Runtime
{
  public:
    explicit Runtime(RuntimeConfig config);
    ~Runtime();

    /** Enqueue a job for batch mode; returns its id (results
     *  index). */
    unsigned submit(Job job);

    /** Run every submitted job across the worker pool; blocks until
     *  all are done. May be called once per Runtime (guarded — reuse
     *  panics; long-lived callers use the pool API instead). */
    std::vector<JobResult> run();

    /** @name Long-lived pool mode
     * @{ */

    /** Bring up config.workers long-lived workers. Panics if the
     *  pool is already up or run() was used. */
    void startPool();

    /** Hand the pool a job; done(result) fires on the worker thread
     *  that ran it. Jobs go to per-worker deques round-robin; idle
     *  workers steal from the front of busy ones. Returns the job
     *  id. */
    unsigned enqueue(Job job, JobCompletion done);

    /** Block until every enqueued job has completed (the pool stays
     *  up). Only races with concurrent enqueue if the caller lets
     *  it. */
    void drainPool();

    /** Drain, then stop and join the workers and fold their stats
     *  into the merged view. Idempotent. */
    void stopPool();

    bool poolStarted() const { return poolStarted_; }

    /** Jobs enqueued but not yet started / currently executing.
     *  Approximate under concurrency; exact once quiescent. */
    std::size_t queuedJobs() const
    {
        return queued_.load(std::memory_order_relaxed);
    }
    unsigned runningJobs() const
    {
        return running_.load(std::memory_order_relaxed);
    }
    /** @} */

    unsigned workers() const { return config_.workers; }

    /** Per-worker machine counters summed at join (valid after
     *  run()). */
    const MachineStats &machineStats() const { return merged_; }

    /** Host-acceleration counters summed across all workers (valid
     *  after run(); all zero when acceleration is off). */
    const AccelStats &accelStats() const { return mergedAccel_; }

    /** The merged "fpc_runtime" stat registry: job counts, per-job
     *  step/cycle distributions (valid after run()). */
    const stats::StatGroup &stats() const { return group_; }

    /** Merged per-procedure profile (valid after run() when
     *  RuntimeConfig::profile was set). */
    const obs::ProfileData &profile() const { return profile_; }

    /** Merged sampled profile (valid after run() or stopPool() when
     *  RuntimeConfig::profileSampled was set). */
    const obs::SampledProfile &sampledProfile() const
    {
        return sampledProfile_;
    }

    /** Host-acceleration counters folded per completed job, readable
     *  mid-run (accelStats() only folds at join): the serving layer's
     *  live scrape reads accel gauges from here. */
    AccelStats liveAccelStats() const;

    /** Write the multi-worker Chrome trace — one track per worker
     *  (valid after run() or stopPool() when RuntimeConfig::trace was
     *  set). */
    void writeTrace(std::ostream &os) const;

    /** The per-worker XFER tracers themselves (empty unless trace is
     *  on), for embedding into combined span/XFER documents. */
    std::vector<const obs::Tracer *> tracers() const;

    /** Write the fpc-metrics-v1 document — one series per worker
     *  (valid after run() when RuntimeConfig::metrics was set). The
     *  host-acceleration gauges are exported only with include_accel,
     *  as fpc-stats-v1 exports host counters only on request. */
    void writeMetricsJson(std::ostream &os,
                          bool include_accel = false) const;

    /** Same series in OpenMetrics text exposition format. */
    void writeOpenMetrics(std::ostream &os,
                          bool include_accel = false) const;

    /** Per-job recorded histories, indexed by job id (valid after
     *  run() when RuntimeConfig::record was set). */
    const std::vector<replay::JobRecord> &jobRecords() const
    {
        return jobRecords_;
    }

    /** The static-assignment stride actually used (min(workers,
     *  jobs)); the fpc-record-v1 header's "stride". */
    unsigned stride() const
    {
        return static_cast<unsigned>(poolSize_);
    }

    /** The recorded image hash (valid after run() with record on). */
    std::uint64_t recordedImageHash() const
    {
        return recordedImageHash_.load(std::memory_order_relaxed);
    }

  private:
    /** A worker's reusable simulated machine. The Memory allocation
     *  (and its first-touch cost) persists across jobs; prepare()
     *  zeroes the store and reloads the image, so each job still sees
     *  a pristine machine and the simulated numbers are identical to
     *  building everything fresh. */
    struct ExecContext
    {
        SystemLayout layout;
        std::unique_ptr<Memory> mem;
        std::optional<LoadedImage> image;
        std::optional<Machine> machine;
        std::uint64_t builds = 0; ///< fresh Memory allocations
        std::uint64_t reuses = 0; ///< jobs that recycled the Memory
    };

    struct PoolTask
    {
        unsigned id = 0;
        Job job;
        JobCompletion done;
    };

    /** One worker's deque: the owner pushes/pops at the back, thieves
     *  take from the front (oldest first, better locality for the
     *  owner's recent work). */
    struct WorkerDeque
    {
        std::mutex m;
        std::deque<PoolTask> dq;
    };

    void workerMain(unsigned worker_id);
    void poolWorkerMain(unsigned worker_id);
    bool takeTask(unsigned worker_id, PoolTask &out, bool &stolen);
    void startPoolWorkers(unsigned n);
    void prepareContext(ExecContext &ctx, const Job &job);
    JobResult executeJob(const Job &job, unsigned id,
                         unsigned worker_id, ExecContext &ctx,
                         MachineStats &acc, AccelStats &accel_acc,
                         obs::Tracer *tracer,
                         obs::ProfileData *profile_acc,
                         obs::SampledProfile *sampled_acc,
                         obs::Telemetry *telemetry);
    void closeSpansOnAbort(const Job &job, unsigned id,
                           unsigned worker_id);
    bool stopRequested() const
    {
        return config_.stopFlag != nullptr &&
               config_.stopFlag->load(std::memory_order_relaxed);
    }
    JobResult canceledResult(unsigned id, unsigned worker_id) const;

    /** Reproducible observation wants the static job-to-worker
     *  stride instead of the dynamic queue. */
    bool staticAssignment() const
    {
        return config_.trace || config_.metrics || config_.record ||
               !config_.postmortemDir.empty() ||
               (config_.probes != nullptr && config_.probes->active());
    }
    obs::MetricsExport metricsMeta(bool include_accel) const;

    RuntimeConfig config_;
    std::vector<Job> jobs_;
    std::vector<JobResult> results_;
    std::atomic<std::size_t> next_{0};
    std::mutex mergeMutex_;
    MachineStats merged_;
    AccelStats mergedAccel_;
    stats::StatGroup group_{"fpc_runtime"};
    obs::ProfileData profile_;
    obs::SampledProfile sampledProfile_;
    mutable std::mutex liveMutex_;
    AccelStats liveAccel_;
    std::vector<std::unique_ptr<obs::Tracer>> tracers_;
    std::vector<std::unique_ptr<obs::Telemetry>> telemetry_;
    std::vector<replay::JobRecord> jobRecords_;
    std::atomic<std::uint64_t> recordedImageHash_{0};
    std::size_t poolSize_ = 0; ///< stride for the static assignment
    bool ran_ = false;

    // Pool mode.
    std::vector<std::unique_ptr<WorkerDeque>> deques_;
    std::vector<std::thread> poolThreads_;
    std::mutex poolMutex_;          ///< guards the wakeup conditions
    std::condition_variable workCv_; ///< work arrived / stopping
    std::condition_variable idleCv_; ///< a job finished (drain wait)
    std::atomic<std::size_t> queued_{0};
    std::atomic<unsigned> running_{0};
    std::atomic<unsigned> nextPoolId_{0};
    std::atomic<unsigned> enqueueRr_{0};
    bool poolStopping_ = false; ///< under poolMutex_
    bool poolStarted_ = false;
};

} // namespace fpc::sched

#endif // FPC_SCHED_RUNTIME_HH
