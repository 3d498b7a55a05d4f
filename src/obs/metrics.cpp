#include "obs/metrics.hpp"

#include <stdexcept>

#include "obs/json.hpp"

namespace routesync::obs {

std::uint64_t HistogramSnapshot::total() const noexcept {
    std::uint64_t sum = underflow + overflow;
    for (const std::uint64_t c : counts) {
        sum += c;
    }
    return sum;
}

namespace {

HistogramSnapshot snapshot_of(const stats::Histogram& h) {
    HistogramSnapshot s;
    s.lo = h.bin_lo(0);
    s.hi = h.bin_hi(h.bin_count() - 1);
    s.counts.reserve(h.bin_count());
    for (std::size_t i = 0; i < h.bin_count(); ++i) {
        s.counts.push_back(h.count(i));
    }
    s.underflow = h.underflow();
    s.overflow = h.overflow();
    return s;
}

bool same_stats(const stats::RunningStats& a, const stats::RunningStats& b) {
    if (a.count() != b.count()) {
        return false;
    }
    if (a.count() == 0) {
        return true;
    }
    return a.mean() == b.mean() && a.variance() == b.variance() &&
           a.min() == b.min() && a.max() == b.max();
}

} // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
    for (const auto& [name, value] : other.counters) {
        counters[name] += value;
    }
    for (const auto& [name, value] : other.gauges) {
        gauges[name] = value; // last writer wins, in merge order
    }
    for (const auto& [name, dist] : other.distributions) {
        distributions[name].merge(dist);
    }
    for (const auto& [name, hist] : other.histograms) {
        auto [it, inserted] = histograms.try_emplace(name, hist);
        if (inserted) {
            continue;
        }
        HistogramSnapshot& mine = it->second;
        if (mine.lo != hist.lo || mine.hi != hist.hi ||
            mine.counts.size() != hist.counts.size()) {
            throw std::invalid_argument{
                "MetricsSnapshot::merge: histogram '" + name + "' binning mismatch"};
        }
        for (std::size_t i = 0; i < mine.counts.size(); ++i) {
            mine.counts[i] += hist.counts[i];
        }
        mine.underflow += hist.underflow;
        mine.overflow += hist.overflow;
    }
}

bool MetricsSnapshot::operator==(const MetricsSnapshot& other) const {
    if (counters != other.counters || gauges != other.gauges) {
        return false;
    }
    if (distributions.size() != other.distributions.size() ||
        histograms.size() != other.histograms.size()) {
        return false;
    }
    auto it = other.distributions.begin();
    for (const auto& [name, dist] : distributions) {
        if (name != it->first || !same_stats(dist, it->second)) {
            return false;
        }
        ++it;
    }
    auto hit = other.histograms.begin();
    for (const auto& [name, hist] : histograms) {
        if (name != hit->first || hist.lo != hit->second.lo ||
            hist.hi != hit->second.hi || hist.counts != hit->second.counts ||
            hist.underflow != hit->second.underflow ||
            hist.overflow != hit->second.overflow) {
            return false;
        }
        ++hit;
    }
    return true;
}

std::string MetricsSnapshot::to_json() const {
    JsonWriter w;
    w.begin_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : counters) {
        w.key(name);
        w.value(value);
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, value] : gauges) {
        w.key(name);
        w.value(value);
    }
    w.end_object();
    w.key("distributions");
    w.begin_object();
    for (const auto& [name, dist] : distributions) {
        w.key(name);
        w.begin_object();
        w.key("count");
        w.value(dist.count());
        w.key("mean");
        w.value(dist.mean());
        w.key("stddev");
        w.value(dist.stddev());
        w.key("min");
        w.value(dist.count() > 0 ? dist.min() : 0.0);
        w.key("max");
        w.value(dist.count() > 0 ? dist.max() : 0.0);
        w.end_object();
    }
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [name, hist] : histograms) {
        w.key(name);
        w.begin_object();
        w.key("lo");
        w.value(hist.lo);
        w.key("hi");
        w.value(hist.hi);
        w.key("underflow");
        w.value(hist.underflow);
        w.key("overflow");
        w.value(hist.overflow);
        w.key("counts");
        w.begin_array();
        for (const std::uint64_t c : hist.counts) {
            w.value(c);
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
    return w.str();
}

MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts) {
    MetricsSnapshot merged;
    for (const MetricsSnapshot& part : parts) {
        merged.merge(part);
    }
    return merged;
}

stats::Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                             double hi, std::size_t bins) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        return histograms_.emplace(name, stats::Histogram{lo, hi, bins}).first->second;
    }
    stats::Histogram& h = it->second;
    if (h.bin_lo(0) != lo || h.bin_hi(h.bin_count() - 1) != hi ||
        h.bin_count() != bins) {
        throw std::invalid_argument{
            "MetricsRegistry::histogram: '" + name + "' re-registered with different binning"};
    }
    return h;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot s;
    s.counters = counters_;
    s.gauges = gauges_;
    s.distributions = distributions_;
    for (const auto& [name, hist] : histograms_) {
        s.histograms.emplace(name, snapshot_of(hist));
    }
    return s;
}

} // namespace routesync::obs
