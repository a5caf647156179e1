/**
 * @file
 * The Replayer: re-executes a recording and diagnoses the first
 * divergence.
 *
 * verify() re-runs every job with the recorded configuration, forcing
 * the recorded scheduler decisions instead of live policy, and
 * compares the replayed digest stream against the recorded one. On
 * mismatch it reports the first divergent sampling interval, then
 * bisects: the job is re-run twice more with per-XFER Full digests
 * inside the suspect step window. If the two re-runs agree with each
 * other, the replay side is self-consistent and the recording itself
 * is the divergent party (a corrupted log, or nondeterminism in the
 * recording run) — resolution stays at interval granularity. If they
 * disagree, the first differing XFER pinpoints the divergence
 * exactly. Either way an extended "fpc-postmortem-v1" bundle is
 * written with recorded-vs-replayed deltas (registers, heap
 * counters, digest streams, and the transfer ring around the
 * window).
 *
 * diverge() is the intentional cross-engine comparison: the same
 * recording replayed on the recorded engine and on another one, both
 * at per-XFER granularity with DigestScope::Arch (the state every
 * engine represents identically), reporting the first transfer where
 * the engines part ways — or their equivalence, which is the paper's
 * central claim made checkable.
 */

#ifndef FPC_REPLAY_REPLAYER_HH
#define FPC_REPLAY_REPLAYER_HH

#include <optional>
#include <string>
#include <vector>

#include "program/module.hh"
#include "replay/record.hh"

namespace fpc::replay
{

struct VerifyOptions
{
    /** Replay with host acceleration forced on/off regardless of the
     *  recording — digests must be invariant, so this *tests* the
     *  acceleration contract rather than weakening verification. */
    std::optional<bool> accelOverride;
    /** When nonempty, a divergence writes
     *  "<dir>/job-<id>-divergence.json". */
    std::string divergenceDir;
};

/** Where and how a verification failed. */
struct Divergence
{
    unsigned job = 0;
    /** Index into the recorded sample stream; the stream is the start
     *  bracket followed by one sample per elapsed interval. */
    std::size_t sampleIndex = 0;
    bool finalMismatch = false; ///< divergence only at the final state
    std::uint64_t windowBeginStep = 0;
    std::uint64_t windowEndStep = 0;
    std::uint64_t recordedDigest = 0;
    std::uint64_t replayedDigest = 0;
    bool bisected = false;
    /** Two independent per-XFER replays of the window agreed: the
     *  recording, not the replay, carries the divergent bytes. */
    bool selfConsistent = false;
    /** First divergent instruction (valid when bisected and not
     *  selfConsistent). */
    std::uint64_t divergentStep = 0;
    std::string bundlePath; ///< written bundle, when requested
    std::string detail;     ///< one-line human summary
};

struct VerifyResult
{
    bool ok = false;
    unsigned jobsChecked = 0;
    std::size_t samplesChecked = 0;
    /** Replay consumed decisions the log did not contain (or stamps
     *  disagreed) — reported even when digests happen to match. */
    bool decisionOverrun = false;
    std::optional<Divergence> divergence;
};

/** Outcome of the cross-engine comparison. */
struct DivergeResult
{
    bool equivalent = false;
    std::size_t xfersCompared = 0;
    bool countMismatch = false; ///< engines made different XFER counts
    std::size_t xferIndex = 0;  ///< first divergent transfer
    std::uint64_t step = 0;     ///< its instruction stamp (base run)
    std::uint64_t baseDigest = 0;
    std::uint64_t otherDigest = 0;
};

class Replayer
{
  public:
    /** Compiles the embedded program once; fatal on compile errors. */
    explicit Replayer(RecordLog log);

    const RecordLog &log() const { return log_; }

    VerifyResult verify(const VerifyOptions &options = {});

    /** Replay job 0 on the recorded engine and on `other`, comparing
     *  Arch digests after every transfer. */
    DivergeResult diverge(Impl other);

  private:
    struct ExecSpec;
    struct ExecOutcome;
    ExecOutcome executeJob(const JobRecord &job, const ExecSpec &spec);
    Divergence diagnose(const JobRecord &job, Divergence divergence,
                        const VerifyOptions &options);

    RecordLog log_;
    std::vector<Module> modules_;
};

} // namespace fpc::replay

#endif // FPC_REPLAY_REPLAYER_HH
