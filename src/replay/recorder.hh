/**
 * @file
 * The Recorder: captures one job's execution history — periodic state
 * digests on the machine's CycleSampler interval, every scheduler
 * decision, and the final state — into a replay::JobRecord.
 *
 * The recorder *is* a CycleSampler, so attaching it costs zero
 * simulated cycles and (like any sampler) fires on exactly the step
 * the eager loop would pick, on every backend; the digests it takes
 * are therefore identical with host acceleration off or on. Other
 * samplers (telemetry, the sampled profiler) attach beside it with
 * Machine::addSampler, each on its own grid, and leave the
 * recording unchanged.
 *
 * Scheduler decisions enter through wrapPolicy(): it decorates any
 * Machine::Scheduler hook so every context the policy hands back is
 * recorded with its instruction-count stamp before the machine sees
 * it.
 */

#ifndef FPC_REPLAY_RECORDER_HH
#define FPC_REPLAY_RECORDER_HH

#include "machine/machine.hh"
#include "replay/record.hh"

namespace fpc::replay
{

class Recorder : public CycleSampler
{
  public:
    Recorder() = default;

    void onSample(const Machine &machine) override;

    /** Take a digest right now (run bracketing, like
     *  Telemetry::sample). */
    void sample(const Machine &machine);

    /** Record one scheduler decision explicitly. */
    void recordDecision(std::uint64_t step, Word ctx);

    /** Decorate a scheduler hook so its decisions are recorded. */
    Machine::Scheduler wrapPolicy(Machine::Scheduler inner);

    /** Capture the final state. Call at stop, *before* any popValue:
     *  the top-of-stack return value is peeked, not consumed. */
    void finish(const Machine &machine, const RunResult &result);

    /** Begin the next job's record (keeps the finished ones). */
    void beginJob(unsigned id, unsigned worker);

    const JobRecord &current() const { return job_; }
    JobRecord takeJob();

  private:
    JobRecord job_;
};

} // namespace fpc::replay

#endif // FPC_REPLAY_RECORDER_HH
