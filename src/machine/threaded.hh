/**
 * @file
 * Threaded-code host backend: superblocks over the decoded stream.
 *
 * The paper's arc removes per-call work (I3's IFU follows DIRECTCALL
 * like a jump); PR 3's icache removed per-step *decode* work. What is
 * left on the host hot path is dispatch itself — the central switch
 * and the per-instruction accounting. This backend compiles both
 * away:
 *
 *  - each decoded instruction carries a direct handler address
 *    (a GNU computed-goto label), so dispatch is one indirect jump
 *    from the end of one handler straight into the next — a BTB entry
 *    per handler instead of one mispredicted central switch;
 *  - straight-line runs are grouped into **superblocks** — basic
 *    blocks ending at an XFER, branch, or trap-prone terminal — with
 *    fused accounting: one steps/cycles/code-byte charge per block,
 *    replaying exactly what the eager loop would have charged per
 *    step, so every simulated number stays bit-identical;
 *  - an XFER at a block exit chains to the successor block through an
 *    inline pointer the way I3's IFU follows a DIRECTCALL: a chain
 *    hit re-enters the next block without touching the cache index.
 *
 * The contract is the acceleration contract (machine/accel.hh): all
 * simulated numbers are bit-identical with the backend off or on.
 * Preemption, the exact sampler and the step budget share
 * one per-block deadline: a block is entered (or chained into) only
 * when its static step count fits before the budget and the
 * timeslice expiry, and the cycle ceiling of its non-final
 * instructions fits before the next sample point; otherwise the loop
 * takes exact step()s until the deadline has passed. Only an
 * XferObserver sends the whole run to the eager loop. Host counters
 * (AccelStats) may differ across backends by design.
 */

#ifndef FPC_MACHINE_THREADED_HH
#define FPC_MACHINE_THREADED_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "machine/accel.hh"
#include "machine/machine.hh"

namespace fpc
{

/** One threaded instruction: the decoded fields the handlers consume,
 *  flattened next to the direct handler address so a block executes
 *  out of one sequential array. */
struct TInst
{
    const void *handler = nullptr; ///< computed-goto label
    CodeByteAddr start = 0;        ///< absolute PC of this instruction
    CodeByteAddr next = 0;         ///< start + length
    std::int32_t operand = 0;
    std::int32_t operand2 = 0;
    /** Cumulative code bytes of the block through this instruction —
     *  the prefix charge when a trap exits the block early. */
    std::uint32_t cumBytes = 0;
    std::uint8_t op = 0;     ///< raw opcode (opCount accounting)
    std::uint8_t length = 0; ///< encoded length (instLenCount)
};

/**
 * A superblock: a straight-line decoded run ending at a control
 * transfer (or at the length cap, where a BlockEnd sentinel falls
 * through to the next block). Immutable once built; the accounting
 * totals and sparse per-opcode deltas replay the eager loop's exact
 * per-step charges at block granularity.
 */
struct Superblock
{
    CodeByteAddr entry = 0;
    std::uint32_t n = 0;          ///< executable instructions
    std::uint32_t codeBytes = 0;  ///< total encoded bytes of the n
    /** Most cycles the first n - 1 instructions can take (decode plus
     *  the worst case of their storage references): a sample point
     *  past now + cycleBound cannot fall between two of the block's
     *  steps. The last instruction is left out — the post-step checks
     *  after it run exactly at the block exit — and so is any
     *  transfer a trap starts, because a trapping instruction always
     *  ends the block. */
    Tick cycleBound = 0;
    std::vector<TInst> insts;     ///< n + 1 (BlockEnd sentinel last)
    /** Sparse accounting deltas for one full execution. */
    std::vector<std::pair<std::uint8_t, std::uint32_t>> opDeltas;
    std::vector<std::pair<std::uint8_t, std::uint32_t>> lenDeltas;
    /** Superinstructions fused at build time (compare+branch and
     *  load-pair peepholes); host-side accounting only. */
    std::uint32_t fusedPairs = 0;

    /** Full executions not yet folded into MachineStats. The
     *  opCount/instLenCount/AccelStats charges defer here (nothing
     *  reads them mid-run); the loop's register-held counters (data
     *  reference counts and their cycles, local-bank accesses) defer
     *  across blocks too, because every mid-run reader is delta-based
     *  — XFER probes and heap/link trackers sample differences of the
     *  counters entirely within member code, where the pending deltas
     *  are constant and cancel — while the absolute readers run only
     *  where the loop has folded everything: span observers force the
     *  eager loop, and the exact sampler and preemption act at block
     *  exits or in exact step()s. Only the bank dirty bits fold at
     *  every slow-path entry: transfers read dirty masks directly. */
    std::uint64_t execPending = 0;

    /** Inline successor chain (the IFU-follows-DIRECTCALL idiom at
     *  block granularity): the block most recently entered from this
     *  block's exit, keyed by the exit PC it was entered at. Valid
     *  until the cache flushes — evicted blocks stay alive in the
     *  arena precisely so chains never dangle within an epoch. */
    Superblock *chain = nullptr;
    CodeByteAddr chainPc = ~0u;
};

/**
 * Entry-PC-indexed cache of superblocks. Direct-mapped table over an
 * owning arena: table eviction forgets the index entry only, so chain
 * pointers into evicted blocks stay valid until the next full flush
 * (code-epoch move or arena cap).
 */
class SuperblockCache
{
  public:
    SuperblockCache(unsigned entries, std::uint64_t code_epoch);

    /** The block whose entry is pc, or null. No counters: the loop
     *  accounts executions at block granularity. */
    Superblock *
    find(CodeByteAddr pc)
    {
        Superblock *b = table_[slot(pc)];
        return (b != nullptr && b->entry == pc) ? b : nullptr;
    }

    /** Take ownership and index the block. Returns the raw pointer,
     *  valid until the next flushAll. */
    Superblock *insert(std::unique_ptr<Superblock> block);

    /** Flush everything if the memory's code epoch moved. Returns
     *  true when a flush happened (chain pointers held by the caller
     *  are dead). Pending accounting folds into stats first. Inline
     *  for the common no-move case: this runs every loop iteration. */
    bool
    sync(std::uint64_t code_epoch, MachineStats &stats,
         AccelStats &astats)
    {
        if (code_epoch == seenEpoch_) [[likely]]
            return false;
        seenEpoch_ = code_epoch;
        flushAll(stats, astats);
        return true;
    }

    /** Arena saturation: the loop flushes between blocks, never
     *  mid-block, so the cap can be checked lazily. */
    bool overLimit() const { return arena_.size() >= maxBlocks; }

    /** Drop all blocks (deferred accounting folds into stats first). */
    void flushAll(MachineStats &stats, AccelStats &astats);

    /** Selective deopt for dynamic probes: forget the table entries of
     *  blocks intersecting [begin, end) and null every chain pointer
     *  into them, folding deferred accounting first. Arena blocks stay
     *  alive (nothing dangles); the outer loop's armed check keeps the
     *  range on the exact eager path afterwards. Counts the dropped
     *  blocks into AccelStats::probeDeoptBlocks. */
    void invalidateRange(CodeByteAddr begin, CodeByteAddr end,
                         MachineStats &stats, AccelStats &astats);

    /** Note that a block's execPending went from 0 to 1, so
     *  flushDeferred visits it. */
    void markPending(Superblock &block) { pending_.push_back(&block); }

    /** Fold the deferred execution accounting of every pending block
     *  into the simulated opcode/length histograms and the host
     *  counters. Called on every threaded-loop exit (RAII), before any
     *  flush, and before every sample, so deferral is never
     *  observable; it visits only the blocks run since the last fold,
     *  which keeps the exact sampler's per-sample cost small. */
    void flushDeferred(MachineStats &stats, AccelStats &astats);

  private:
    static constexpr std::size_t maxBlocks = 1u << 16;

    std::size_t
    slot(CodeByteAddr pc) const
    {
        return (pc ^ (pc >> 12)) & mask_;
    }

    std::uint64_t seenEpoch_ = 0;
    std::size_t mask_ = 0;
    std::vector<Superblock *> table_;
    std::vector<std::unique_ptr<Superblock>> arena_;
    /** Arena blocks with execPending > 0, each listed once. */
    std::vector<Superblock *> pending_;
};

} // namespace fpc

#endif // FPC_MACHINE_THREADED_HH
