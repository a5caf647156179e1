/**
 * @file
 * Host-side execution acceleration (see docs/PERFORMANCE.md).
 *
 * The paper's arc I1→I4 removes per-call work by resolving it once
 * per code site: §6's DIRECTCALL conversion moves the LV→GFT→GF→EV
 * walk from call time to load time. The interpreter pays analogous
 * *host* costs on every step — re-decoding the instruction at each PC
 * and re-walking the Figure-1 indirection chain on every external
 * call. This layer shifts that host work to once-per-code-site:
 *
 *  - a predecoded instruction cache: the first execution of a PC
 *    caches the isa::decode result so steady-state dispatch is an
 *    array index plus a switch;
 *  - an XFER link cache: small direct-mapped caches memoizing the
 *    resolved (global frame, entry PC, frame-size index) for each
 *    resolution discipline (EFC descriptor walk, LFC entry-vector
 *    lookup, DFC header read, FCALL fsi byte) — the dynamic analogue
 *    of I3's load-time DIRECTCALL conversion.
 *
 * The contract: every *simulated* number (cycles, storage references,
 * MachineStats, traces, profiles) is bit-identical with acceleration
 * on or off. A cache hit still charges the exact storage references
 * and cycles the paper's walk would have made; only the host-side
 * work is skipped. Invalidation: Memory keeps a code-mutation epoch
 * (bumped by every code-byte write and by the loader/relocator), and
 * the machine flushes everything when the epoch moves; data writes
 * that could change a cached mapping (the GFT, a global frame's code
 * base word) flush the link caches through a sensitive-address map.
 */

#ifndef FPC_MACHINE_ACCEL_HH
#define FPC_MACHINE_ACCEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/decode.hh"

namespace fpc
{

class LoadedImage;

/** True when this toolchain can build the threaded-code backend (its
 *  computed-goto dispatch needs the GNU label-address extension). */
constexpr bool
threadedDispatchSupported()
{
#if defined(__GNUC__) || defined(__clang__)
    return true;
#else
    return false;
#endif
}

/** Host-acceleration knobs (all host-side; no simulated effect). */
struct AccelConfig
{
    /** Master switch; off runs the original interpret-everything path,
     *  on runs the threaded-code backend (machine/threaded.hh) wherever
     *  threadedDispatchSupported(), else the eager loop with the
     *  icache and link caches. */
    bool enabled = true;
    /** Predecoded icache entries (power of two). */
    unsigned icacheEntries = 1u << 14;
    /** Entries per link-cache flavor (power of two). */
    unsigned linkEntries = 1u << 8;
    /** Superblock cache entries (power of two). */
    unsigned sblockEntries = 1u << 12;
};

/** Host-side cache counters (separate from MachineStats on purpose:
 *  simulated statistics are invariant under acceleration). */
struct AccelStats
{
    CountT icacheHits = 0;
    CountT icacheMisses = 0;

    CountT extHits = 0;    ///< EFC/XFER descriptor walks memoized
    CountT extMisses = 0;
    CountT localHits = 0;  ///< LFC entry-vector lookups memoized
    CountT localMisses = 0;
    CountT directHits = 0; ///< DFC/SDFC header reads memoized
    CountT directMisses = 0;
    CountT fatHits = 0;    ///< FCALL fsi-byte reads memoized
    CountT fatMisses = 0;

    CountT codeFlushes = 0;  ///< full flushes (code epoch moved)
    CountT tableFlushes = 0; ///< link flushes (sensitive data write)

    /** Threaded backend: superblocks decoded, superblock executions,
     *  and block-to-block transitions served by the inline chain
     *  pointer without a cache lookup. */
    CountT sblockBuilds = 0;
    CountT sblockExecs = 0;
    CountT sblockChainHits = 0;
    /** Dynamic executions of fused superinstructions (compare+branch
     *  and load-pair handlers): fused pairs per block × executions. */
    CountT sblockFusionHits = 0;
    /** Times the deferred block accounting folded into MachineStats
     *  (loop exits, cache flushes, boundary samples). */
    CountT deferredFlushes = 0;

    /** Dynamic probes (machine.hh ProbeSink): armed code ranges
     *  registered, superblocks selectively invalidated at arm time,
     *  and steps the accelerated loops deoptimized to the exact eager
     *  path because the PC lay inside an armed range. */
    CountT probeSites = 0;
    CountT probeDeoptBlocks = 0;
    CountT probeEagerSteps = 0;

    CountT linkHits() const
    {
        return extHits + localHits + directHits + fatHits;
    }
    CountT linkMisses() const
    {
        return extMisses + localMisses + directMisses + fatMisses;
    }
    double icacheHitRate() const;
    double linkHitRate() const;
    /** Block-to-block transitions served by the inline chain pointer,
     *  as a fraction of superblock executions. */
    double chainRate() const;

    /** Fold another machine's counters in (multi-worker runtimes). */
    void merge(const AccelStats &other);
};

/**
 * Where a procedure-call resolution landed: the callee's global
 * frame, entry PC and frame-size index (plus the code base when the
 * resolution path produced it — EFC/LFC do; DFC/FCALL leave it to be
 * recovered from the global frame on transfer out, §5.3).
 */
struct ProcTarget
{
    Addr gf = 0;
    CodeByteAddr codeBase = 0;
    bool codeBaseValid = false;
    unsigned fsi = 0;
    CodeByteAddr entryPc = 0; ///< absolute byte address
};

/** The caches themselves; owned by a Machine when acceleration is on. */
class Accel
{
  public:
    Accel(const AccelConfig &config, const LoadedImage &image,
          std::uint64_t code_epoch);

    AccelStats stats;

    /** Flush everything if the memory's code epoch moved. */
    void
    sync(std::uint64_t code_epoch)
    {
        if (code_epoch != seenEpoch_) {
            flushAll();
            seenEpoch_ = code_epoch;
            ++stats.codeFlushes;
        }
    }

    /** @name Predecoded instruction cache. @{ */
    const isa::Inst *
    findInst(CodeByteAddr pc)
    {
        const IEntry &e = icache_[pc & icacheMask_];
        if (e.tag == pc) {
            ++stats.icacheHits;
            return &e.inst;
        }
        ++stats.icacheMisses;
        return nullptr;
    }

    /** Counter-free probe: a lookup that is not an instruction fetch
     *  and so counts as neither hit nor miss. */
    const isa::Inst *
    probeInst(CodeByteAddr pc) const
    {
        const IEntry &e = icache_[pc & icacheMask_];
        return e.tag == pc ? &e.inst : nullptr;
    }

    /** Store a freshly decoded instruction (only after a successful
     *  decode, so a panicking fetch never leaves a live entry). */
    void
    storeInst(CodeByteAddr pc, const isa::Inst &inst)
    {
        IEntry &e = icache_[pc & icacheMask_];
        e.tag = pc;
        e.inst = inst;
    }
    /** @} */

    /** @name XFER link caches, one per resolution discipline. @{ */
    bool findExt(Word descriptor, ProcTarget &out);
    void putExt(Word descriptor, const ProcTarget &target);

    bool findLocal(CodeByteAddr code_base, unsigned ev_index,
                   unsigned &fsi, CodeByteAddr &entry_pc);
    void putLocal(CodeByteAddr code_base, unsigned ev_index,
                  const ProcTarget &target);

    bool findDirect(CodeByteAddr target_addr, ProcTarget &out);
    void putDirect(CodeByteAddr target_addr, const ProcTarget &target);

    bool findFat(CodeByteAddr target_addr, unsigned &fsi);
    void putFat(CodeByteAddr target_addr, unsigned fsi);
    /** @} */

    /** True if a data write to addr could change a memoized link
     *  mapping (GFT entry or a global frame's code-base word). */
    bool
    linkSensitive(Addr addr) const
    {
        return addr < sensitive_.size() && sensitive_[addr] != 0;
    }

    /** Drop the link caches (a sensitive data write happened). */
    void flushLinks();
    /** Drop everything (the code epoch moved). */
    void flushAll();

  private:
    struct IEntry
    {
        CodeByteAddr tag = invalidTag;
        isa::Inst inst;
    };
    struct LinkEntry
    {
        std::uint64_t key = invalidKey;
        ProcTarget target;
    };

    static constexpr CodeByteAddr invalidTag = 0xFFFFFFFFu;
    static constexpr std::uint64_t invalidKey = ~0ull;

    static std::size_t
    slot(std::uint64_t key, std::size_t mask)
    {
        return (key ^ (key >> 16)) & mask;
    }

    bool findLink(std::vector<LinkEntry> &cache, std::uint64_t key,
                  ProcTarget &out);
    void putLink(std::vector<LinkEntry> &cache, std::uint64_t key,
                 const ProcTarget &target);

    std::uint64_t seenEpoch_ = 0;
    std::size_t icacheMask_ = 0;
    std::size_t linkMask_ = 0;
    std::vector<IEntry> icache_;
    std::vector<LinkEntry> ext_;
    std::vector<LinkEntry> local_;
    std::vector<LinkEntry> direct_;
    std::vector<LinkEntry> fat_;
    /** One byte per data-space word below the frame region. */
    std::vector<std::uint8_t> sensitive_;
};

} // namespace fpc

#endif // FPC_MACHINE_ACCEL_HH
