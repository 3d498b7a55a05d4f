#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/json.hpp"

namespace routesync::obs {

TraceSummary summarize(const std::vector<TraceEvent>& events,
                       const SummaryOptions& options) {
    TraceSummary s;
    s.events = events.size();
    s.round_length = options.round_length;
    if (options.round_length > 0.0 && options.phase_bins > 0) {
        s.tx_phase_hist.assign(static_cast<std::size_t>(options.phase_bins), 0);
    }

    // Open busy period per node (cpu_busy_begin seen, end pending).
    std::map<int, double> busy_open;
    bool first = true;
    for (const TraceEvent& e : events) {
        const double t = e.time.sec();
        if (first) {
            s.t_min = s.t_max = t;
            first = false;
        } else {
            s.t_min = std::min(s.t_min, t);
            s.t_max = std::max(s.t_max, t);
        }
        ++s.by_type[trace_event_name(e.type)];

        switch (e.type) {
        case TraceEventType::UpdateTx: {
            ++s.tx_by_node[e.node];
            if (!s.tx_phase_hist.empty()) {
                const double offset =
                    e.time.mod(sim::SimTime::seconds(options.round_length))
                        .sec();
                auto bin = static_cast<std::size_t>(
                    offset / options.round_length *
                    static_cast<double>(s.tx_phase_hist.size()));
                bin = std::min(bin, s.tx_phase_hist.size() - 1);
                ++s.tx_phase_hist[bin];
            }
            break;
        }
        case TraceEventType::CpuBusyBegin:
            // A second begin before the end just restarts the period (the
            // router model never emits that, but stay robust).
            busy_open[e.node] = t;
            break;
        case TraceEventType::CpuBusyEnd: {
            const auto it = busy_open.find(e.node);
            if (it != busy_open.end()) {
                const double len = t - it->second;
                ++s.busy_periods;
                s.busy_total_sec += len;
                s.busy_max_sec = std::max(s.busy_max_sec, len);
                busy_open.erase(it);
            }
            break;
        }
        case TraceEventType::MetricSample: {
            auto& m = s.metric_samples[e.a];
            if (m.count == 0) {
                m.min = m.max = e.b;
            } else {
                m.min = std::min(m.min, e.b);
                m.max = std::max(m.max, e.b);
            }
            m.last = e.b;
            ++m.count;
            break;
        }
        default:
            break;
        }
    }
    s.busy_unclosed = busy_open.size();
    return s;
}

std::string format_summary(const TraceSummary& s) {
    std::string out;
    char buf[160];
    std::snprintf(buf, sizeof buf, "events: %llu  span: [%.6g, %.6g] s\n",
                  static_cast<unsigned long long>(s.events), s.t_min, s.t_max);
    out += buf;

    out += "\nby type:\n";
    for (const auto& [name, count] : s.by_type) {
        std::snprintf(buf, sizeof buf, "  %-16s %12llu\n", name.c_str(),
                      static_cast<unsigned long long>(count));
        out += buf;
    }

    if (!s.tx_by_node.empty()) {
        out += "\ntransmissions by node:\n";
        for (const auto& [node, count] : s.tx_by_node) {
            std::snprintf(buf, sizeof buf, "  node %-4d %12llu\n", node,
                          static_cast<unsigned long long>(count));
            out += buf;
        }
    }

    if (!s.tx_phase_hist.empty()) {
        std::snprintf(buf, sizeof buf,
                      "\ntx phase histogram (round = %.6g s, %zu bins):\n",
                      s.round_length, s.tx_phase_hist.size());
        out += buf;
        std::uint64_t peak = 1;
        for (const std::uint64_t c : s.tx_phase_hist) {
            peak = std::max(peak, c);
        }
        for (std::size_t i = 0; i < s.tx_phase_hist.size(); ++i) {
            const double lo = s.round_length *
                              static_cast<double>(i) /
                              static_cast<double>(s.tx_phase_hist.size());
            const auto bar_len = static_cast<std::size_t>(
                40.0 * static_cast<double>(s.tx_phase_hist[i]) /
                static_cast<double>(peak));
            std::snprintf(buf, sizeof buf, "  %8.3f %10llu  %s\n", lo,
                          static_cast<unsigned long long>(s.tx_phase_hist[i]),
                          std::string(bar_len, '#').c_str());
            out += buf;
        }
    }

    if (!s.metric_samples.empty()) {
        out += "\nmetric samples (by source id):\n";
        std::snprintf(buf, sizeof buf, "  %-6s %10s %12s %12s %12s\n", "id",
                      "count", "min", "max", "last");
        out += buf;
        for (const auto& [id, m] : s.metric_samples) {
            std::snprintf(buf, sizeof buf, "  %-6lld %10llu %12.6g %12.6g %12.6g\n",
                          static_cast<long long>(id),
                          static_cast<unsigned long long>(m.count), m.min, m.max,
                          m.last);
            out += buf;
        }
    }

    if (s.busy_periods > 0 || s.busy_unclosed > 0) {
        const double mean = s.busy_periods > 0
                                ? s.busy_total_sec /
                                      static_cast<double>(s.busy_periods)
                                : 0.0;
        std::snprintf(buf, sizeof buf,
                      "\nbusy periods: %llu  total %.6g s  mean %.6g s  max "
                      "%.6g s  unclosed %llu\n",
                      static_cast<unsigned long long>(s.busy_periods),
                      s.busy_total_sec, mean, s.busy_max_sec,
                      static_cast<unsigned long long>(s.busy_unclosed));
        out += buf;
    }
    return out;
}

std::vector<TraceEvent> filter_events(const std::vector<TraceEvent>& events,
                                      const FilterOptions& options) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events) {
        if (!options.types.empty() &&
            std::find(options.types.begin(), options.types.end(), e.type) ==
                options.types.end()) {
            continue;
        }
        if (options.node.has_value() && e.node != *options.node) {
            continue;
        }
        const double t = e.time.sec();
        if (options.t_min.has_value() && t < *options.t_min) {
            continue;
        }
        if (options.t_max.has_value() && t > *options.t_max) {
            continue;
        }
        out.push_back(e);
    }
    return out;
}

namespace {

// Track ids: node -1 (global events) renders on tid 0; node n on tid n+1.
int chrome_tid(int node) { return node < 0 ? 0 : node + 1; }

void chrome_common(std::string& out, const char* name, const char* ph,
                   double ts_us, int tid) {
    out += "{\"name\": \"";
    out += name;
    out += "\", \"ph\": \"";
    out += ph;
    out += "\", \"ts\": ";
    out += json_number(ts_us);
    out += ", \"pid\": 0, \"tid\": ";
    out += std::to_string(tid);
}

} // namespace

std::string export_chrome(const std::vector<TraceEvent>& events) {
    std::string out = "{\"traceEvents\": [\n";
    bool fresh = true;
    const auto emit = [&out, &fresh](const std::string& line) {
        if (!fresh) {
            out += ",\n";
        }
        fresh = false;
        out += line;
    };

    // Name the tracks up front (metadata events).
    std::vector<int> tids;
    for (const TraceEvent& e : events) {
        const int tid = chrome_tid(e.node);
        if (std::find(tids.begin(), tids.end(), tid) == tids.end()) {
            tids.push_back(tid);
        }
    }
    std::sort(tids.begin(), tids.end());
    for (const int tid : tids) {
        std::string line;
        chrome_common(line, "thread_name", "M", 0.0, tid);
        line += ", \"args\": {\"name\": \"";
        line += tid == 0 ? std::string{"global"}
                         : "node " + std::to_string(tid - 1);
        line += "\"}}";
        emit(line);
    }

    for (const TraceEvent& e : events) {
        const double ts = e.time.sec() * 1e6; // Chrome wants microseconds
        const int tid = chrome_tid(e.node);
        std::string line;
        switch (e.type) {
        case TraceEventType::CpuBusyBegin:
            chrome_common(line, "cpu_busy", "B", ts, tid);
            line += ", \"args\": {\"cost_sec\": " + json_number(e.b) + "}}";
            break;
        case TraceEventType::CpuBusyEnd:
            chrome_common(line, "cpu_busy", "E", ts, tid);
            line += "}";
            break;
        case TraceEventType::ResourceSample:
            // Counter series, one per source index; b is the level.
            chrome_common(line,
                          ("resource." + std::to_string(e.a)).c_str(), "C",
                          ts, tid);
            line += ", \"args\": {\"value\": " + json_number(e.b) + "}}";
            break;
        default:
            // Everything else renders as a thread-scoped instant with the
            // raw slots attached.
            chrome_common(line, trace_event_name(e.type), "i", ts, tid);
            line += ", \"s\": \"t\", \"args\": {\"a\": " +
                    std::to_string(e.a) + ", \"b\": " + json_number(e.b) +
                    ", \"x\": " + json_number(e.x) + "}}";
            break;
        }
        emit(line);
    }
    out += "\n]}\n";
    return out;
}

} // namespace routesync::obs
