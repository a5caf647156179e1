/**
 * @file
 * Low-overhead sampling profiler for the accelerated host backends.
 *
 * The exact Profiler (obs/profile.hh) rides the XFER observer hook,
 * which forces the eager loop: attaching it to an accelerated run
 * silently throws away the speedup it is supposed to measure.
 * This profiler is a CycleSampler instead, so the threaded loop keeps
 * running and serves it through its per-block deadline: a sample is
 * taken at the first step boundary at or past each point of an exact
 * simulated-cycle grid, on every backend.
 *
 * A sample records the instruction whose cycles crossed the point
 * (Machine::lastInstStart()) and charges it to the procedure that
 * contains it. Attribution is statistical — cycle shares converge on
 * the exact profiler's exclusive shares as the sample count grows —
 * but deterministic: the sample points, and so the profile, are
 * byte-identical across runs and across the acceleration switch.
 */

#ifndef FPC_OBS_SAMPLED_PROFILE_HH
#define FPC_OBS_SAMPLED_PROFILE_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "obs/profile.hh"
#include "program/loader.hh"
#include "stats/table.hh"

namespace fpc::obs
{

/** Per-procedure sample counts; mergeable across workers/jobs. */
struct SampledProfile
{
    std::map<std::string, CountT> samples;
    CountT total = 0;    ///< samples retained and attributed
    CountT recorded = 0; ///< samples taken over the profiler's life
    CountT dropped = 0;  ///< samples discarded by the ring

    void merge(const SampledProfile &other);

    /** Share of retained samples attributed to name (0 when empty). */
    double share(const std::string &name) const;

    /** Top-N procedures by sample count. */
    stats::Table topTable(std::size_t top_n = 20) const;

    /** Folded-stack output ("name count"), one line per procedure —
     *  the same flamegraph.pl input format the exact profiler writes,
     *  with single-frame stacks (sampling sees no caller chain). */
    void writeFolded(std::ostream &os) const;
};

/** The sampler: attach with machine.addSampler(&p, interval) (or
 *  setSampler), run, then finish(). */
class SampledProfiler : public CycleSampler
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 16;

    explicit SampledProfiler(const LoadedImage &image,
                             std::size_t capacity = defaultCapacity);

    void onSample(const Machine &machine) override;

    CountT recorded() const { return recorded_; }
    CountT dropped() const { return dropped_; }

    /** Resolve the retained samples to procedure names and return the
     *  profile. The profiler is reset and may observe another run. */
    SampledProfile finish();

  private:
    ProcMap map_;
    std::size_t capacity_;
    std::vector<CodeByteAddr> ring_; ///< sampled instruction starts
    std::size_t head_ = 0; ///< next write slot once the ring is full
    CountT recorded_ = 0;
    CountT dropped_ = 0;
};

} // namespace fpc::obs

#endif // FPC_OBS_SAMPLED_PROFILE_HH
