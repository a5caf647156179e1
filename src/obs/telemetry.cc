#include "obs/telemetry.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "frames/frame_heap.hh"
#include "obs/json.hh"

namespace fpc::obs
{

Telemetry::Telemetry(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        panic("Telemetry: capacity must be nonzero");
    ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void
Telemetry::setProvider(GaugeProvider provider)
{
    provider_ = std::move(provider);
}

void
Telemetry::onSample(const Machine &machine)
{
    sample(machine);
}

void
Telemetry::sample(const Machine &machine)
{
    MetricsSample s;
    const MachineStats &ms = machine.stats();
    s.cycles = base_ + ms.cycles;
    s.steps = stepBase_ + ms.steps;
    s.xferCount = ms.xferCount;
    s.calls = ms.calls();
    s.returns = ms.returns();
    s.preemptions = ms.preemptions;
    s.fastCallReturnRate = ms.fastCallReturnRate();
    s.returnStackDepth = machine.returnStackDepth();

    const BankFile &banks = machine.banks();
    for (unsigned b = 0; b < banks.numBanks(); ++b) {
        if (banks.owner(static_cast<int>(b)) != nilAddr)
            ++s.banksResident;
    }

    const FrameHeap &heap = machine.heap();
    s.liveFrames = heap.stats().liveFrames();
    s.fragmentation = heap.stats().fragmentation();
    const unsigned classes = heap.classes().numClasses();
    s.freeFrames.reserve(classes);
    for (unsigned c = 0; c < classes; ++c)
        s.freeFrames.push_back(heap.freeListLength(c));

    s.accelEnabled = machine.accelEnabled();
    if (s.accelEnabled) {
        const AccelStats a = machine.accelStats();
        s.icacheHitRate = a.icacheHitRate();
        s.linkHitRate = a.linkHitRate();
        s.sblockChainRate = a.chainRate();
        s.sblockFusionHits = a.sblockFusionHits;
        s.deferredFlushes = a.deferredFlushes;
    }

    if (provider_)
        provider_(s.gauges);

    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(s));
    } else {
        ring_[head_] = std::move(s);
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
    ++recorded_;
}

std::vector<MetricsSample>
Telemetry::samples() const
{
    std::vector<MetricsSample> out;
    out.reserve(ring_.size());
    // head_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

void
Telemetry::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    // dropped_ survives: lifetime losses, across epochs.
}

// ---------------------------------------------------------------------
// fpc-metrics-v1 JSON export
// ---------------------------------------------------------------------

namespace
{

void
sampleJson(JsonWriter &w, const MetricsSample &s, bool include_accel)
{
    w.beginObject();
    w.kv("cycles", static_cast<std::uint64_t>(s.cycles));
    w.kv("steps", s.steps);

    w.key("xfers").beginObject();
    for (unsigned k = 0; k < MachineStats::numXferKinds; ++k)
        w.kv(xferKindName(static_cast<XferKind>(k)), s.xferCount[k]);
    w.endObject();

    w.kv("calls", s.calls);
    w.kv("returns", s.returns);
    w.kv("preemptions", s.preemptions);
    w.kv("fastCallReturnRate", s.fastCallReturnRate);
    w.kv("returnStackDepth", s.returnStackDepth);
    w.kv("banksResident", s.banksResident);

    w.key("heap").beginObject();
    w.kv("liveFrames", s.liveFrames);
    w.kv("fragmentation", s.fragmentation);
    w.key("freeFrames").beginArray();
    for (const unsigned n : s.freeFrames)
        w.value(n);
    w.endArray();
    w.endObject();

    // Host hit rates only on request: the default document must be
    // byte-identical with acceleration on or off.
    w.key("accel");
    if (include_accel && s.accelEnabled) {
        w.beginObject();
        w.kv("icacheHitRate", s.icacheHitRate);
        w.kv("linkHitRate", s.linkHitRate);
        w.kv("sblockChainRate", s.sblockChainRate);
        w.kv("sblockFusionHits", s.sblockFusionHits);
        w.kv("deferredFlushes", s.deferredFlushes);
        w.endObject();
    } else {
        w.nullValue();
    }

    w.key("gauges").beginObject();
    for (const auto &[name, value] : s.gauges)
        w.kv(name, value);
    w.endObject();

    w.endObject();
}

} // namespace

void
writeMetricsJson(std::ostream &os, const MetricsExport &meta,
                 const std::vector<const Telemetry *> &workers)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "fpc-metrics-v1");
    w.kv("driver", meta.driver);
    if (!meta.impl.empty())
        w.kv("impl", meta.impl);
    w.kv("interval", static_cast<std::uint64_t>(meta.interval));

    w.key("series").beginArray();
    for (unsigned worker = 0; worker < workers.size(); ++worker) {
        const Telemetry *t = workers[worker];
        if (t == nullptr)
            continue;
        w.beginObject();
        w.kv("worker", worker);
        w.kv("recorded", t->recorded());
        w.kv("dropped", t->dropped());
        w.key("samples").beginArray();
        for (const MetricsSample &s : t->samples())
            sampleJson(w, s, meta.includeAccel);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    os << "\n";
}

void
writeMetricsJson(std::ostream &os, const MetricsExport &meta,
                 const Telemetry &telemetry)
{
    writeMetricsJson(os, meta,
                     std::vector<const Telemetry *>{&telemetry});
}

// ---------------------------------------------------------------------
// OpenMetrics text exposition
// ---------------------------------------------------------------------

namespace
{

/** OpenMetrics label-value escaping: backslash, quote, newline. */
std::string
labelEscape(std::string_view v)
{
    std::string out;
    out.reserve(v.size());
    for (const char c : v) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** Restrict a provider gauge name to [a-zA-Z0-9_:]. */
std::string
sanitizeName(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

struct Exposition
{
    std::ostream &os;
    const MetricsExport &meta;
    const std::vector<const Telemetry *> &workers;

    /** `# HELP`/`# TYPE` header for one metric family. */
    void
    family(const std::string &name, const char *type, const char *help)
    {
        os << "# HELP " << name << " " << help << "\n"
           << "# TYPE " << name << " " << type << "\n";
    }

    /** One sample line, stamped with its simulated-cycle timestamp
     *  (exported 1 cycle = 1 second; simulated time, so the series is
     *  byte-identical across runs). */
    void
    point(const std::string &name, unsigned worker,
          const std::string &extra_labels, double value, Tick stamp)
    {
        os << name << "{worker=\"" << worker << "\",impl=\""
           << labelEscape(meta.impl) << "\"" << extra_labels << "} "
           << jsonNumber(value) << " " << stamp << "\n";
    }

    /** Emit one family whose per-sample value emit() extracts. */
    template <typename Fn>
    void
    gaugeFamily(const std::string &name, const char *help, Fn &&emit)
    {
        family(name, "gauge", help);
        forEachSample([&](unsigned worker, const MetricsSample &s) {
            emit(name, worker, s);
        });
    }

    template <typename Fn>
    void
    forEachSample(Fn &&fn)
    {
        for (unsigned worker = 0; worker < workers.size(); ++worker) {
            if (workers[worker] == nullptr)
                continue;
            for (const MetricsSample &s : workers[worker]->samples())
                fn(worker, s);
        }
    }
};

} // namespace

void
writeOpenMetrics(std::ostream &os, const MetricsExport &meta,
                 const std::vector<const Telemetry *> &workers)
{
    Exposition x{os, meta, workers};

    // Counters: the family is named without the _total suffix the
    // sample lines carry (OpenMetrics 1.0 naming).
    x.family("fpc_cycles", "counter", "Simulated cycles executed.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        x.point("fpc_cycles_total", w, "",
                static_cast<double>(s.cycles), s.cycles);
    });
    x.family("fpc_steps", "counter", "Instructions executed.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        x.point("fpc_steps_total", w, "",
                static_cast<double>(s.steps), s.cycles);
    });
    x.family("fpc_xfers", "counter", "Control transfers by kind.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        for (unsigned k = 0; k < MachineStats::numXferKinds; ++k) {
            const std::string kind =
                xferKindName(static_cast<XferKind>(k));
            x.point("fpc_xfers_total", w,
                    ",kind=\"" + labelEscape(kind) + "\"",
                    static_cast<double>(s.xferCount[k]), s.cycles);
        }
    });
    x.family("fpc_calls", "counter", "Call-like transfers.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        x.point("fpc_calls_total", w, "",
                static_cast<double>(s.calls), s.cycles);
    });
    x.family("fpc_returns", "counter", "Return transfers.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        x.point("fpc_returns_total", w, "",
                static_cast<double>(s.returns), s.cycles);
    });
    x.family("fpc_preemptions", "counter",
             "Timeslice-driven process switches.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        x.point("fpc_preemptions_total", w, "",
                static_cast<double>(s.preemptions), s.cycles);
    });

    // Gauges.
    x.gaugeFamily("fpc_fast_call_return_rate",
                  "Fraction of calls+returns at jump cost.",
                  [&](const std::string &n, unsigned w,
                      const MetricsSample &s) {
                      x.point(n, w, "", s.fastCallReturnRate, s.cycles);
                  });
    x.gaugeFamily("fpc_return_stack_depth",
                  "IFU return-stack residency.",
                  [&](const std::string &n, unsigned w,
                      const MetricsSample &s) {
                      x.point(n, w, "", s.returnStackDepth, s.cycles);
                  });
    x.gaugeFamily("fpc_banks_resident",
                  "Register banks currently owning a frame.",
                  [&](const std::string &n, unsigned w,
                      const MetricsSample &s) {
                      x.point(n, w, "", s.banksResident, s.cycles);
                  });
    x.gaugeFamily("fpc_frames_live",
                  "Frames allocated and not yet freed.",
                  [&](const std::string &n, unsigned w,
                      const MetricsSample &s) {
                      x.point(n, w, "",
                              static_cast<double>(s.liveFrames),
                              s.cycles);
                  });
    x.gaugeFamily("fpc_heap_fragmentation",
                  "Internal fragmentation of the frame heap.",
                  [&](const std::string &n, unsigned w,
                      const MetricsSample &s) {
                      x.point(n, w, "", s.fragmentation, s.cycles);
                  });
    x.family("fpc_heap_free_frames", "gauge",
             "AV free-list occupancy per size class.");
    x.forEachSample([&](unsigned w, const MetricsSample &s) {
        for (unsigned fsi = 0; fsi < s.freeFrames.size(); ++fsi) {
            x.point("fpc_heap_free_frames", w,
                    ",fsi=\"" + std::to_string(fsi) + "\"",
                    s.freeFrames[fsi], s.cycles);
        }
    });

    if (meta.includeAccel) {
        x.gaugeFamily("fpc_accel_icache_hit_rate",
                      "Host predecode cache hit rate.",
                      [&](const std::string &n, unsigned w,
                          const MetricsSample &s) {
                          if (s.accelEnabled)
                              x.point(n, w, "", s.icacheHitRate,
                                      s.cycles);
                      });
        x.gaugeFamily("fpc_accel_link_hit_rate",
                      "Host XFER link cache hit rate.",
                      [&](const std::string &n, unsigned w,
                          const MetricsSample &s) {
                          if (s.accelEnabled)
                              x.point(n, w, "", s.linkHitRate,
                                      s.cycles);
                      });
        x.gaugeFamily("fpc_accel_chain_rate",
                      "Superblock transitions served by the inline "
                      "chain pointer, per execution.",
                      [&](const std::string &n, unsigned w,
                          const MetricsSample &s) {
                          if (s.accelEnabled)
                              x.point(n, w, "", s.sblockChainRate,
                                      s.cycles);
                      });
        x.family("fpc_accel_fusion_hits", "counter",
                 "Fused superinstruction executions (threaded "
                 "backend).");
        x.forEachSample([&](unsigned w, const MetricsSample &s) {
            if (s.accelEnabled)
                x.point("fpc_accel_fusion_hits_total", w, "",
                        static_cast<double>(s.sblockFusionHits),
                        s.cycles);
        });
        x.family("fpc_accel_deferred_flushes", "counter",
                 "Deferred-accounting folds into MachineStats.");
        x.forEachSample([&](unsigned w, const MetricsSample &s) {
            if (s.accelEnabled)
                x.point("fpc_accel_deferred_flushes_total", w, "",
                        static_cast<double>(s.deferredFlushes),
                        s.cycles);
        });
    }

    // Provider gauges, one family per distinct name, in order of
    // first appearance (deterministic for deterministic providers).
    std::vector<std::string> gaugeNames;
    std::set<std::string> seen;
    x.forEachSample([&](unsigned, const MetricsSample &s) {
        for (const auto &[name, value] : s.gauges) {
            (void)value;
            const std::string n = "fpc_" + sanitizeName(name);
            if (seen.insert(n).second)
                gaugeNames.push_back(n);
        }
    });
    for (const std::string &family : gaugeNames) {
        x.family(family, "gauge", "Runtime-provided gauge.");
        x.forEachSample([&](unsigned w, const MetricsSample &s) {
            for (const auto &[name, value] : s.gauges) {
                if ("fpc_" + sanitizeName(name) == family)
                    x.point(family, w, "", value, s.cycles);
            }
        });
    }

    os << "# EOF\n";
}

void
writeOpenMetrics(std::ostream &os, const MetricsExport &meta,
                 const Telemetry &telemetry)
{
    writeOpenMetrics(os, meta,
                     std::vector<const Telemetry *>{&telemetry});
}

} // namespace fpc::obs
