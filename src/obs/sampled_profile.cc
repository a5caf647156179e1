#include "obs/sampled_profile.hh"

#include <algorithm>

namespace fpc::obs
{

void
SampledProfile::merge(const SampledProfile &other)
{
    for (const auto &[name, n] : other.samples)
        samples[name] += n;
    total += other.total;
    recorded += other.recorded;
    dropped += other.dropped;
}

double
SampledProfile::share(const std::string &name) const
{
    if (total == 0)
        return 0.0;
    auto it = samples.find(name);
    if (it == samples.end())
        return 0.0;
    return static_cast<double>(it->second) /
           static_cast<double>(total);
}

stats::Table
SampledProfile::topTable(std::size_t top_n) const
{
    std::vector<std::pair<std::string, CountT>> rows(samples.begin(),
                                                     samples.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (rows.size() > top_n)
        rows.resize(top_n);

    stats::Table table({"procedure", "samples", "share %"});
    for (const auto &[name, n] : rows) {
        table.row(name, n,
                  stats::percent(
                      total ? static_cast<double>(n) /
                                  static_cast<double>(total)
                            : 0.0));
    }
    return table;
}

void
SampledProfile::writeFolded(std::ostream &os) const
{
    for (const auto &[name, n] : samples)
        os << name << " " << n << "\n";
}

SampledProfiler::SampledProfiler(const LoadedImage &image,
                                 std::size_t capacity)
    : map_(image), capacity_(std::max<std::size_t>(1, capacity))
{
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
SampledProfiler::onSample(const Machine &machine)
{
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.push_back(machine.lastInstStart());
        return;
    }
    ring_[head_] = machine.lastInstStart();
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

SampledProfile
SampledProfiler::finish()
{
    SampledProfile out;
    out.recorded = recorded_;
    out.dropped = dropped_;
    for (const CodeByteAddr pc : ring_) {
        const std::string *name = map_.find(pc);
        out.samples[name != nullptr ? *name : idleProcName] += 1;
        ++out.total;
    }
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    return out;
}

} // namespace fpc::obs
