#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace routesync::obs {

namespace {

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
}

bool MetricsSnapshot::operator==(const MetricsSnapshot& other) const {
    if (counters != other.counters || gauges != other.gauges) {
        return false;
    }
    if (distributions.size() != other.distributions.size()) {
        return false;
    }
    auto it = other.distributions.begin();
    for (const auto& [name, dist] : distributions) {
        if (name != it->first || !same_stats(dist, it->second)) {
            return false;
        }
        ++it;
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
    w.end_object();
    return w.str();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot s;
    s.counters = counters_;
    s.gauges = gauges_;
    s.distributions = distributions_;
    return s;
}

} // namespace routesync::obs
