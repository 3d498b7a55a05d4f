#include "scenarios/scenario_sweep.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "cli/flags.hpp"
#include "obs/trace_sink.hpp"
#include "obs/tracer.hpp"
#include "parallel/task_pool.hpp"

namespace routesync::scenarios {

namespace {

/// Decodes submission index -> (buffer, load, trial), buffer-major.
struct CellCoords {
    std::size_t buffer_idx;
    std::size_t load_idx;
    int trial;
};

CellCoords decode(std::size_t index, std::size_t n_loads, int trials) {
    const auto per_buffer = n_loads * static_cast<std::size_t>(trials);
    CellCoords c{};
    c.buffer_idx = index / per_buffer;
    const std::size_t rem = index % per_buffer;
    c.load_idx = rem / static_cast<std::size_t>(trials);
    c.trial = static_cast<int>(rem % static_cast<std::size_t>(trials));
    return c;
}

} // namespace

ScenarioSweepResult run_scenario_sweep(const ScenarioSweepConfig& config) {
    if (config.buffers.empty()) {
        throw std::invalid_argument{"scenario sweep: no buffer sizes"};
    }
    if (config.loads.empty()) {
        throw std::invalid_argument{"scenario sweep: no load multipliers"};
    }
    if (config.trials < 1) {
        throw std::invalid_argument{"scenario sweep: trials must be >= 1"};
    }

    const std::size_t count = config.buffers.size() * config.loads.size() *
                              static_cast<std::size_t>(config.trials);
    ScenarioSweepResult sweep;
    sweep.cells.resize(count);

    // One cell = one chunk: cells are whole simulations (seconds, not
    // microseconds), so per-cell claims give the stealing its finest
    // granularity.
    parallel::TaskPool pool{config.jobs};
    sweep.jobs = pool.jobs();
    sweep.steals = pool.run(count, 1, [&](std::size_t lo, std::size_t len) {
        for (std::size_t i = lo; i < lo + len; ++i) {
            const CellCoords at = decode(i, config.loads.size(), config.trials);
            ScenarioSweepCell& cell = sweep.cells[i];
            cell.buffer = config.buffers[at.buffer_idx];
            cell.load = config.loads[at.load_idx];
            cell.trial = at.trial;
            cell.seed = config.base.seed + static_cast<std::uint64_t>(at.trial);

            SharedLanScenarioConfig cfg = config.base;
            cfg.queue_packets = cell.buffer;
            cfg.bg_burst = static_cast<int>(
                std::lround(static_cast<double>(config.base.bg_burst) * cell.load));
            if (cfg.bg_burst < 0) {
                cfg.bg_burst = 0;
            }
            cfg.seed = cell.seed;

            if (config.hash_traces) {
                obs::HashingSink sink;
                obs::Tracer tracer{sink};
                cfg.tracer = &tracer;
                cell.result = run_shared_lan_scenario(cfg);
                cell.trace_digest = sink.digest();
                cell.trace_events = sink.events_seen();
            } else {
                cfg.tracer = nullptr;
                cell.result = run_shared_lan_scenario(cfg);
            }
        }
    });

    // Fold the per-cell digests into one witness for the whole sweep.
    std::uint64_t h = 14695981039346656037ULL;
    for (const ScenarioSweepCell& cell : sweep.cells) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (cell.trace_digest >> (8 * byte)) & 0xffU;
            h *= 1099511628211ULL;
        }
    }
    sweep.combined_digest = h;
    return sweep;
}

std::vector<std::size_t> parse_buffer_list(const std::string& spec) {
    // Each size follows --queue-cap's rule: an integer in [1, INT_MAX].
    const auto parse_one = [&](const std::string& tok) -> std::size_t {
        const auto v =
            cli::parse_integer(tok, 1, std::numeric_limits<int>::max());
        if (!v) {
            throw std::invalid_argument{
                "--buffers wants integers in [1, " +
                std::to_string(std::numeric_limits<int>::max()) +
                "] ('LO..HI' or 'a,b,c'), got '" + spec + "'"};
        }
        return static_cast<std::size_t>(*v);
    };
    std::vector<std::size_t> buffers;
    if (const auto dots = spec.find(".."); dots != std::string::npos) {
        const std::size_t lo = parse_one(spec.substr(0, dots));
        const std::size_t hi = parse_one(spec.substr(dots + 2));
        if (lo > hi) {
            throw std::invalid_argument{"--buffers range is empty: '" + spec +
                                        "'"};
        }
        // Doubling ladder, HI always included: "2..64" -> 2,4,...,64 and
        // "2..48" -> 2,4,...,32,48 (a buffer scan is log-shaped; the top
        // end is where drop-tail and RED finally agree).
        for (std::size_t b = lo; b < hi; b *= 2) {
            buffers.push_back(b);
        }
        buffers.push_back(hi);
        return buffers;
    }
    std::size_t start = 0;
    while (start <= spec.size()) {
        const auto comma = spec.find(',', start);
        const auto len =
            (comma == std::string::npos ? spec.size() : comma) - start;
        buffers.push_back(parse_one(spec.substr(start, len)));
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    return buffers;
}

std::vector<double> parse_load_list(const std::string& spec) {
    std::vector<double> loads;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const auto comma = spec.find(',', start);
        const auto len =
            (comma == std::string::npos ? spec.size() : comma) - start;
        // A real flag's rule: finite. A nan or infinite load would run
        // the cell with no background traffic at all.
        const auto v = cli::parse_real(spec.substr(start, len));
        if (!v || *v < 0.0) {
            throw std::invalid_argument{
                "--loads wants finite non-negative multipliers 'a,b,c', got '" +
                spec + "'"};
        }
        loads.push_back(*v);
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    return loads;
}

} // namespace routesync::scenarios
