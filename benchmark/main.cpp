// routesync_benchmark: runs one workload for a fixed host-time budget and
// prints one JSON object with the raw samples, per-operation checks and
// (traced mode) per-layer numbers. benchmark/run.py builds this binary,
// turns the samples into metrics and prints the benchmark's result line.
//
//   routesync_benchmark --workload pm_grid --seed 1 --seconds 10 --trace 0
//       [--size full|tiny] [--expect FILE] [--spans-out FILE]
//
// --expect FILE holds one recorded result checksum per operation (hex,
// one per line); every repetition of every operation is compared with it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "calibration.hpp"
#include "workloads.hpp"

using namespace routesync;
using namespace routesync::benchmark;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Size size = Size::Full;
    std::string expect;
    std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "routesync_benchmark: %s\n"
                 "usage: routesync_benchmark --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] [--expect FILE] "
                 "[--spans-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0' || value[0] == '-') {
                usage("--seed wants a non-negative integer, got '" + value + "'");
            }
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
                usage("--seconds wants a positive number, got '" + value + "'");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usage("--trace wants 0 or 1, got '" + value + "'");
            }
            args.trace = value == "1";
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny") {
                usage("--size wants full or tiny, got '" + value + "'");
            }
            args.size = value == "full" ? Size::Full : Size::Tiny;
        } else if (flag == "--expect") {
            args.expect = value;
        } else if (flag == "--spans-out") {
            args.spans_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload.empty()) {
        usage("--workload is required");
    }
    return args;
}

std::vector<std::uint64_t> read_expect(const std::string& path, std::size_t ops) {
    std::ifstream in{path};
    if (!in) {
        usage("cannot read --expect file " + path);
    }
    std::vector<std::uint64_t> out;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            out.push_back(std::stoull(line, nullptr, 16));
        }
    }
    if (out.size() != ops) {
        usage("--expect file has " + std::to_string(out.size()) +
              " checksums, the workload has " + std::to_string(ops) +
              " operations");
    }
    return out;
}

double median(std::vector<double> v) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Repeats `body` until `budget` seconds have passed and it ran at least
/// `min_reps` times.
template <typename F> void repeat_for(double budget, int min_reps, F&& body) {
    const auto t0 = Clock::now();
    for (int reps = 0; reps < min_reps || seconds_between(t0, Clock::now()) < budget;
         ++reps) {
        body();
    }
}

/// The process's resident-set high-water mark. Linux's VmHWM belongs to
/// the address space, so it starts fresh at exec; getrusage's ru_maxrss
/// (obs::peak_rss_bytes) survives exec and would report the launching
/// interpreter's footprint when that is the larger one.
std::uint64_t peak_rss() {
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stoull(line.substr(6)) * 1024U; // kB
        }
    }
    return obs::peak_rss_bytes();
}

/// One traced repetition, reduced to what the attribution needs.
struct TracedRep {
    double wall = 0.0;     ///< root span
    double core = 0.0;     ///< sum of core.* spans
    double net = 0.0;      ///< sum of net.* spans
    double net_max = 0.0;  ///< slowest net.* span
};

TracedRep reduce_spans(const SpanRecorder& rec, int root) {
    TracedRep rep;
    const std::vector<Span>& spans = rec.spans();
    rep.wall = spans[static_cast<std::size_t>(root)].duration();
    for (const Span& s : spans) {
        if (s.parent != root) {
            continue;
        }
        const std::string_view name{s.name};
        if (name.starts_with("core.")) {
            rep.core += s.duration();
        } else if (name.starts_with("net.")) {
            rep.net += s.duration();
            rep.net_max = std::max(rep.net_max, s.duration());
        }
    }
    return rep;
}

using Named = std::vector<std::pair<std::string, double>>;

template <typename T>
void put(obs::JsonWriter& j, const std::string& key, const T& value) {
    j.key(key);
    j.value(value);
}

template <typename T>
void put_array(obs::JsonWriter& j, const std::string& key, const std::vector<T>& values) {
    j.key(key);
    j.begin_array();
    for (const T& v : values) {
        j.value(v);
    }
    j.end_array();
}

void put_object(obs::JsonWriter& j, const std::string& key, const Named& values) {
    j.key(key);
    j.begin_object();
    for (const auto& [name, v] : values) {
        put(j, name, v);
    }
    j.end_object();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metrics of a traced run, plus its attribution: each
/// traced repetition's worker-seconds split into layer self times (spans
/// minus the obs work modelled inside them) and the remainder no span
/// covers.
Named layer_metrics(const Workload& w, const Counts& c, const std::vector<double>& run_s,
                    const std::vector<double>& steals,
                    const std::vector<TracedRep>& traced, const ReplayTotals& replay,
                    Named& attribution, std::vector<std::string>& errors,
                    std::vector<std::string>& warnings) {
    // obs work happens inside the core/net calls; its share is the
    // replayed unit cost times the live run's exact event counts.
    const double monitor_s = replay.monitor.ns_per_unit() * 1e-9 *
                             static_cast<double>(c.monitor_events);
    const double obs_est =
        replay.tracer.ns_per_unit() * 1e-9 * static_cast<double>(c.trace_events) +
        monitor_s;
    const auto workers = static_cast<double>(w.workers());
    std::vector<double> wall, core, net, net_max, core_self, net_self, rest, unattributed;
    for (const TracedRep& r : traced) {
        wall.push_back(r.wall);
        core.push_back(r.core);
        net.push_back(r.net);
        net_max.push_back(r.net_max);
        const double capacity = workers * r.wall;
        const double obs_self = r.core > 0.0 || r.net > 0.0 ? obs_est : 0.0;
        core_self.push_back(r.core > 0.0 ? r.core - obs_est : 0.0);
        net_self.push_back(r.net > 0.0 ? r.net - obs_est : 0.0);
        rest.push_back(capacity - core_self.back() - net_self.back() - obs_self);
        const double sum = core_self.back() + net_self.back() + obs_self + rest.back();
        if (!std::isfinite(sum) || std::abs(sum - capacity) > 1e-9 * capacity) {
            errors.push_back("traced attribution does not sum to the wall time");
        }
        unattributed.push_back(ratio(rest.back(), capacity));
    }
    attribution = {{"core_self_s", median(core_self)},
                   {"net_self_s", median(net_self)},
                   {"obs_self_s", obs_est},
                   {"unattributed_s", median(rest)},
                   {"capacity_s", workers * median(wall)}};
    // A negative self time means the replayed unit costs overstate what
    // ran inside the spans: a measurement warning, not a wrong result.
    if (median(core_self) < 0.0 || median(net_self) < 0.0 ||
        median(rest) < -1e-3 * median(wall)) {
        warnings.push_back("a layer's median self time is negative: the "
                           "replayed obs unit costs exceed the spans");
    }

    const double run_med = median(run_s);
    const double core_med = median(core);
    const double net_med = median(net);
    const double parallel_self = run_med - (core_med + net_med) / workers;
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"core.updates", n(c.updates)},
        {"core.events", n(c.events)},
        {"core.rounds", n(c.rounds)},
        {"core.busy_s", core_med},
        {"core.ns_per_update", ratio(core_med * 1e9, n(c.updates))},
        {"core.state_bytes_per_router", c.state_bytes_per_router},
        {"core.tracker_ns_per_rearm", replay.tracker.ns_per_unit()},
        {"core.tracker_share", ratio(replay.tracker.seconds, core_med)},
        {"parallel.self_s", parallel_self},
        {"parallel.idle_frac", ratio(parallel_self, run_med)},
        {"parallel.steals", median(steals)},
        {"parallel.tasks", n(w.pool_tasks())},
        {"net.ns_per_frame", ratio(net_med * 1e9, n(c.frames_delivered))},
        {"net.cell_ms_max", median(net_max) * 1e3},
        {"net.frames_offered", n(c.frames_offered)},
        {"net.frames_delivered", n(c.frames_delivered)},
        {"net.delivery_ratio", ratio(n(c.frames_delivered), n(c.frames_offered))},
        {"net.collisions", n(c.collisions)},
        {"net.red_early_drops", n(c.red_early_drops)},
        {"net.forced_drops", n(c.forced_drops)},
        {"scenarios.update_delivery_ratio",
         ratio(n(c.lan_updates_heard), n(c.lan_update_receivers))},
        {"obs.trace_events", n(c.trace_events)},
        {"obs.tracer_ns_per_event", replay.tracer.ns_per_unit()},
        {"obs.monitor_ns_per_event", replay.monitor.ns_per_unit()},
        {"obs.monitor_share", ratio(monitor_s, core_med)},
        {"obs.coupling_edges", n(c.coupling_edges)},
        {"unattributed_frac", median(unattributed)},
        {"trace_overhead_frac", ratio(median(wall), run_med) - 1.0},
    };
}

/// Per-operation failure accounting that keeps nothing per repetition
/// (so the benchmark's own memory does not grow with the run length). A
/// repetition's operation fails when it threw or broke an invariant, or
/// when its counts differ from repetition 0. The ones that matched
/// repetition 0 are tallied and, at the end, fail as well if repetition
/// 0's result differs from the reference implementation or from the
/// recorded checksum.
class Ledger {
public:
    explicit Ledger(const std::vector<OpOutcome>& first)
        : first_{first}, matched_(first.size(), 0) {}

    void add(const std::vector<OpOutcome>& rep, std::vector<std::string>& errors) {
        for (std::size_t i = 0; i < first_.size(); ++i) {
            ++attempted_;
            const std::string& error = i < rep.size() ? rep[i].error : "missing";
            if (!error.empty() || rep[i].counts != first_[i].counts) {
                fail(i, error.empty() ? "counts differ from repetition 0" : error, 1,
                     errors);
            } else {
                ++matched_[i];
            }
        }
    }

    void judge(const std::vector<std::uint64_t>& reference,
               const std::optional<std::vector<std::uint64_t>>& expected,
               std::vector<std::string>& errors) {
        for (std::size_t i = 0; i < first_.size(); ++i) {
            if (first_[i].result != reference[i]) {
                fail(i, "result differs from the reference implementation",
                     matched_[i], errors);
            } else if (expected.has_value() && first_[i].result != (*expected)[i]) {
                fail(i, "result differs from the recorded checksum", matched_[i],
                     errors);
            }
        }
    }

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }

private:
    void fail(std::size_t op, const std::string& why, std::uint64_t times,
              std::vector<std::string>& errors) {
        failed_ += times;
        if (times > 0 && errors.size() < 8) {
            errors.push_back("op " + std::to_string(op) + ": " + why);
        }
    }

    std::vector<OpOutcome> first_;
    std::vector<std::uint64_t> matched_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    std::unique_ptr<Workload> workload;
    try {
        workload = make_workload(args.workload, args.seed, args.size);
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
    Workload& w = *workload;
    const std::size_t ops = w.op_count();
    const std::optional<std::vector<std::uint64_t>> expected =
        args.expect.empty() ? std::nullopt
                            : std::optional{read_expect(args.expect, ops)};

    std::vector<std::string> errors;
    std::vector<std::string> warnings;

    // Repetition 0 warms caches and thread-local pools; it is checked
    // like every other repetition but not timed.
    const Pass first = w.run();
    Ledger ledger{first.ops};
    ledger.add(first.ops, errors);

    std::vector<double> run_s;
    std::vector<double> setup_s;
    std::vector<double> calibration_s;
    std::vector<double> steals;
    const auto timed_rep = [&] {
        Pass p = w.run();
        run_s.push_back(p.wall_s);
        steals.push_back(static_cast<double>(p.steals));
        ledger.add(p.ops, errors);
    };

    std::uint64_t rss = 0;
    std::vector<TracedRep> traced;
    ReplayTotals replay;
    SpanRecorder rec;
    if (!args.trace) {
        // Set-up (the same entry points at max_time = 0) and a
        // calibration pass are sampled between the timed repetitions, so
        // all three see the same host conditions.
        repeat_for(args.seconds, 3, [&] {
            calibration_s.push_back(calibration_pass());
            for (int k = 0; k < 3; ++k) {
                const auto t0 = Clock::now();
                w.setup();
                setup_s.push_back(seconds_between(t0, Clock::now()));
            }
            timed_rep();
        });
        // Closes the bracket around the last repetition.
        calibration_s.push_back(calibration_pass());
        rss = peak_rss();
    } else {
        // Untraced and traced repetitions alternate, so the comparisons
        // between them (trace overhead, parallel self time) see the same
        // host conditions. A traced repetition records a root span and
        // a child span per entry-point call.
        repeat_for(args.seconds, 3, [&] {
            timed_rep();
            const int root = rec.open("workload", -1);
            Pass p = w.run_traced(rec, root);
            rec.close(root);
            traced.push_back(reduce_spans(rec, root));
            ledger.add(p.ops, errors);
        });
        replay = w.replay(errors);
        if (!args.spans_out.empty() && !rec.write_chrome_json(args.spans_out)) {
            errors.push_back("cannot write spans to " + args.spans_out);
        }
    }

    ledger.judge(w.reference(), expected, errors);

    Named layers;
    Named attribution;
    if (args.trace) {
        layers = layer_metrics(w, first.counts, run_s, steals, traced, replay,
                               attribution, errors, warnings);
    }
    std::vector<std::string> results;
    for (const OpOutcome& op : first.ops) {
        results.push_back(hex(op.result));
    }
    std::vector<double> traced_wall;
    for (const TracedRep& r : traced) {
        traced_wall.push_back(r.wall);
    }

    obs::JsonWriter out;
    out.begin_object();
    put(out, "workload", args.workload);
    put(out, "seed", args.seed);
    put(out, "trace", args.trace);
    put(out, "size", args.size == Size::Full ? "full" : "tiny");
    put(out, "ops", ops);
    put(out, "reps", ledger.attempted() / ops);
    put(out, "attempted", ledger.attempted());
    put(out, "failed", ledger.failed());
    put_array(out, "errors", errors);
    put_array(out, "warnings", warnings);
    put_array(out, "run_s", run_s);
    put_array(out, "setup_s", setup_s);
    put_array(out, "calibration_s", calibration_s);
    put_array(out, "traced_wall_s", traced_wall);
    put(out, "items_per_run", first.counts.items);
    put(out, "peak_rss_bytes", rss);
    put_array(out, "op_results", results);
    put_object(out, "layers", layers);
    put_object(out, "attribution", attribution);
    out.key("provenance");
    out.begin_object();
    put(out, "git_describe", obs::kGitDescribe);
    put(out, "build_type", obs::kBuildType);
    put(out, "compiler", ROUTESYNC_BENCH_COMPILER);
    out.end_object();
    out.end_object();
    std::printf("%s\n", out.str().c_str());
    return 0;
}
