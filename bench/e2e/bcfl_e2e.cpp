// bcfl_e2e — end-to-end benchmark driver; runs one workload per process.
//
//   $ bcfl_e2e --spec=bench/e2e/workloads/paper_tradeoff.json --seed=3
//              --seconds=10 [--trace=PATH]
//
// Phases, in order:
//   1. set-up, repeated (median reported as setup_s; see kMinSetups): spec
//      load, synthetic data and task build — everything a user pays before
//      the first call into run_scenario / run_decentralized;
//   2. an untimed reference run: the grid on the deterministic sim with raw
//      results, which the gates read. It also warms caches and lazy set-up
//      before the timed reps;
//   3. timed reps until --seconds have passed, each a whole deployment.
//      The load is closed: every peer starts its next round only after
//      finishing the current one. Sim workloads call core::run_scenario,
//      the user path, with the engine on min(4, nproc) threads. TCP
//      workloads run run_decentralized over net::TcpTransport with the
//      engine serial;
//   4. correctness gates (see `Gates`); any failure exits 1;
//   5. with --trace: one extra run under the timing wrappers (timed.hpp),
//      the replay probes (replay.hpp), per-layer metrics and a Chrome trace.
//
// --seed replaces both seeds of the spec: the deployment's (chain, mining,
// network and sim RNG) and the synthetic data's. Progress goes to stderr;
// the last stdout line is one JSON document for bench/e2e/run.py.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/paper_setup.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "replay.hpp"
#include "timed.hpp"
#include "tracer.hpp"

#ifndef BCFL_E2E_COMPILER
#define BCFL_E2E_COMPILER "unknown"
#endif

namespace {

using namespace bcfl;
using core::JsonValue;
using e2e::Layer;

struct Options {
    std::string spec_path;
    std::optional<std::uint64_t> seed;
    double seconds = 10.0;
    std::string trace_path;
};

/// Set-ups per run (setup_s is their median): at least kMinSetups, and more
/// while they total under kSetupBudgetS, so a 50 ms set-up is sampled as
/// often as its noise needs and a 5 s one only kMinSetups times.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 20;
constexpr double kSetupBudgetS = 2.0;

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --spec=PATH [--seed=N] [--seconds=S] "
                 "[--trace=PATH]\n",
                 argv0);
    return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

bool parse_options(int argc, char** argv, Options& options) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
        const std::string key = arg.substr(2, eq - 2);
        const std::string value = arg.substr(eq + 1);
        std::uint64_t number = 0;
        if (key == "spec") {
            options.spec_path = value;
        } else if (key == "trace") {
            options.trace_path = value;
        } else if (key == "seconds") {
            char* end = nullptr;
            options.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || options.seconds < 0) {
                return false;
            }
        } else if (!parse_u64(value.c_str(), number)) {
            return false;
        } else if (key == "seed") {
            options.seed = number;
        } else {
            return false;
        }
    }
    return !options.spec_path.empty();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 * 1e-6;  // KiB -> MB
}

std::size_t affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
    return static_cast<std::size_t>(CPU_COUNT(&set));
}

double seconds_since(std::int64_t start_ns) {
    return static_cast<double>(e2e::now_ns() - start_ns) * 1e-9;
}

// ----------------------------------------------------------------- set-up

core::ScenarioSpec load_spec(const Options& options) {
    core::ScenarioSpec spec = core::load_scenario_file(options.spec_path);
    if (options.seed.has_value()) {
        spec.base.seed = *options.seed;
        spec.data.seed = *options.seed;
    }
    return spec;
}

/// The task core::run_scenario(spec) and bcfl_soak build.
fl::FlTask build_task(const core::ScenarioSpec& spec) {
    ml::SyntheticCifarConfig data_config = spec.data;
    data_config.clients = spec.base.peers;
    const ml::FederatedData data = ml::make_synthetic_cifar(data_config);
    return spec.model == "effnet" ? core::paper_effnet_task(data)
                                  : core::paper_simple_task(data,
                                                            spec.model_hidden);
}

// ---------------------------------------------------------- deployments

/// What the traced run observed per grid point.
struct TracedPoint {
    e2e::TransportProbe probe;
    std::size_t nodes = 0;
};

/// One deployment over TCP loopback with the engine serial (every peer
/// trains on its own dispatch thread), optionally under the wrappers.
core::DecentralizedResult run_tcp(const fl::FlTask& task,
                                  const core::DecentralizedConfig& config,
                                  e2e::Tracer* tracer = nullptr,
                                  e2e::MessageLog* log = nullptr,
                                  TracedPoint* traced = nullptr) {
    core::parallel::ThreadCountOverride serial(1);
    net::TcpTransport tcp;
    if (tracer == nullptr) return core::run_decentralized(task, config, tcp);
    e2e::TimedTransport timed(tcp, *tracer, log);
    e2e::set_current_point(0);
    core::DecentralizedResult result;
    {
        const e2e::Span span(*tracer, Layer::point, -1);
        result = core::run_decentralized(task, config, timed);
    }
    e2e::set_current_point(-1);
    traced->probe = timed.probe();
    traced->nodes = timed.node_count();
    return result;
}

/// The grid exactly as core::run_scenario runs it (points fanned out over
/// the engine, inner engines serial), but returning the raw results; under
/// a tracer each point's transport is wrapped.
std::vector<core::DecentralizedResult> run_grid(
    const std::vector<core::ScenarioPoint>& points, const fl::FlTask& task,
    std::size_t width, e2e::Tracer* tracer = nullptr,
    e2e::MessageLog* log = nullptr,
    std::vector<TracedPoint>* traced = nullptr) {
    core::parallel::ThreadCountOverride pin(width);
    std::vector<core::DecentralizedResult> results(points.size());
    core::parallel::for_each(points.size(), [&](std::size_t i) {
        core::DecentralizedConfig config = points[i].config;
        config.threads = 0;
        if (tracer == nullptr) {
            results[i] = core::run_decentralized(task, config);
            return;
        }
        net::SimTransport sim(config.link, config.conditions, config.seed);
        e2e::TimedTransport timed(sim, *tracer, i == 0 ? log : nullptr);
        e2e::set_current_point(static_cast<int>(i));
        {
            const e2e::Span span(*tracer, Layer::point, -1);
            results[i] = core::run_decentralized(task, config, timed);
        }
        e2e::set_current_point(-1);
        (*traced)[i].probe = timed.probe();
        (*traced)[i].nodes = timed.node_count();
    });
    return results;
}

/// The per-point values core::run_scenario's document reports, read from
/// the document or computed the same way from a raw result.
struct PointValues {
    double mean_round_s = 0.0;
    double final_accuracy = 0.0;
    std::uint64_t messages_sent = 0;
    std::uint64_t aggregated_rounds = 0;

    bool operator==(const PointValues&) const = default;
};

PointValues point_values(const JsonValue& point) {
    const auto field = [&](const char* key) -> const JsonValue& {
        const JsonValue* value = point.find(key);
        if (value == nullptr) throw Error(std::string("e2e: document lacks ") + key);
        return *value;
    };
    PointValues out;
    out.mean_round_s = field("mean_round_s").as_double("mean_round_s");
    out.final_accuracy = field("final_accuracy").as_double("final_accuracy");
    out.messages_sent = field("messages_sent").as_u64("messages_sent");
    out.aggregated_rounds = field("aggregated_rounds").as_u64("aggregated_rounds");
    return out;
}

PointValues point_values(const core::DecentralizedResult& result) {
    PointValues out;
    out.mean_round_s = result.mean_round_seconds;
    out.messages_sent = result.traffic.messages_sent;
    double accuracy = 0.0;
    std::size_t peers = 0;
    for (const auto& records : result.peer_records) {
        const core::PeerRoundRecord* last = nullptr;
        for (const core::PeerRoundRecord& record : records) {
            if (record.aggregated_at == 0) continue;
            last = &record;
            ++out.aggregated_rounds;
        }
        if (last != nullptr) {
            accuracy += last->chosen_accuracy;
            ++peers;
        }
    }
    out.final_accuracy = peers ? accuracy / static_cast<double>(peers) : 0.0;
    return out;
}

std::vector<double> round_durations(
    const std::vector<core::DecentralizedResult>& results) {
    std::vector<double> out;
    for (const auto& result : results) {
        for (const auto& records : result.peer_records) {
            for (const core::PeerRoundRecord& record : records) {
                if (record.aggregated_at == 0) continue;
                out.push_back(
                    net::to_seconds(record.aggregated_at - record.round_started));
            }
        }
    }
    return out;
}

// ----------------------------------------------------------------- gates

/// Correctness gates: each prints PASS/FAIL to stderr and is recorded in the
/// output document; any failure fails the run.
struct Gates {
    JsonValue list = JsonValue::array();
    bool ok = true;

    void check(bool condition, const std::string& what) {
        std::fprintf(stderr, "  [%s] %s\n", condition ? "PASS" : "FAIL",
                     what.c_str());
        list.push(JsonValue::object().set("gate", what).set("pass", condition));
        ok = ok && condition;
    }

    /// Completion, traffic balance and bounded-state limits of one run.
    void check_deployment(const std::string& tag,
                          const core::DecentralizedResult& result,
                          std::size_t rounds) {
        bool complete = !result.peer_records.empty();
        for (const auto& records : result.peer_records) {
            std::size_t done = 0;
            for (const auto& record : records) {
                done += record.aggregated_at != 0 ? 1 : 0;
            }
            complete = complete && done == rounds;
        }
        check(complete, tag + ": every peer completed all " +
                            std::to_string(rounds) + " rounds");
        const net::TrafficStats& t = result.traffic;
        check(t.messages_delivered + t.messages_dropped <= t.messages_sent &&
                  t.dropped_invalid == 0,
              tag + ": traffic balance (delivered " +
                  std::to_string(t.messages_delivered) + " + dropped " +
                  std::to_string(t.messages_dropped) + " <= sent " +
                  std::to_string(t.messages_sent) + ", invalid " +
                  std::to_string(t.dropped_invalid) + ")");
        // bcfl_soak's bounded-state limits: two gossip generations, a pool
        // bounded by pruning, nonce snapshots within the horizon.
        bool bounded = true;
        for (const core::NodeStateProbe& p : result.node_probes) {
            bounded = bounded && p.gossip_seen_size <= 2 * p.gossip_seen_cap &&
                      p.pool_size <= p.gossip_seen_cap &&
                      p.nonce_snapshots_held <=
                          p.nonce_snapshot_horizon + p.total_blocks -
                              p.chain_height;
        }
        check(bounded, tag + ": bounded-state probe limits on " +
                           std::to_string(result.node_probes.size()) +
                           " nodes");
    }
};

bool digests_agree(const std::vector<Hash32>& digests,
                   const std::vector<Hash32>& reference) {
    if (digests.empty() || reference.empty()) return false;
    for (const Hash32& d : digests) {
        if (d != reference[0]) return false;
    }
    return true;
}

// ------------------------------------------------------- paper ordering

/// Whether round time and accuracy both fall along wait_all -> wait_for=2
/// -> wait_for=1 (the points of those policies that the grid has).
JsonValue paper_ordering(const std::vector<core::ScenarioPoint>& points,
                         const std::vector<PointValues>& values) {
    const auto is_policy = [](const std::string& spec, const std::string& head) {
        return spec.rfind(head, 0) == 0 &&
               (spec.size() == head.size() || spec[head.size()] == ',');
    };
    JsonValue chain = JsonValue::array();
    std::vector<const PointValues*> ordered;
    for (const char* policy : {"wait_all", "wait_for=2", "wait_for=1"}) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (is_policy(points[i].config.wait_policy, policy)) {
                ordered.push_back(&values[i]);
                chain.push(JsonValue::object()
                               .set("wait_policy", points[i].config.wait_policy)
                               .set("mean_round_s", values[i].mean_round_s)
                               .set("final_accuracy", values[i].final_accuracy));
                break;
            }
        }
    }
    bool holds = ordered.size() >= 2;
    for (std::size_t i = 1; i < ordered.size(); ++i) {
        holds = holds &&
                ordered[i]->mean_round_s < ordered[i - 1]->mean_round_s &&
                ordered[i]->final_accuracy < ordered[i - 1]->final_accuracy;
    }
    return JsonValue::object()
        .set("checked", ordered.size() >= 2)
        .set("holds", holds)
        .set("points", std::move(chain));
}

// ----------------------------------------------------- per-layer metrics

struct LayerMetrics {
    JsonValue values = JsonValue::object();
    JsonValue samples = JsonValue::object();

    void add(const std::string& name, double value, const char* unit) {
        values.set(name, JsonValue::object().set("value", value).set("unit", unit));
    }
    void add_summary(const std::string& name, const e2e::Summary& s,
                     double value, const char* unit) {
        add(name, value, unit);
        samples.set(name, static_cast<std::uint64_t>(s.n));
    }
};

double share(double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
}

LayerMetrics layer_metrics(const e2e::Tracer& tracer,
                           const std::vector<core::DecentralizedResult>& results,
                           const std::vector<TracedPoint>& traced,
                           const e2e::ReplayResult& replay,
                           std::size_t width, double traced_wall_s,
                           double untraced_wall_s) {
    const auto totals = tracer.totals();
    const auto at = [&](Layer layer) -> const e2e::Tracer::LayerTotals& {
        return totals[static_cast<std::size_t>(layer)];
    };
    LayerMetrics m;
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

    m.add("ml.train_local.calls", count(at(Layer::ml_train_local).calls), "count");
    m.add("ml.train_local.self_s", at(Layer::ml_train_local).self_s, "s");
    m.add("ml.evaluate.calls", count(at(Layer::ml_evaluate).calls), "count");
    m.add("ml.evaluate.self_s", at(Layer::ml_evaluate).self_s, "s");
    m.add("ml.set_weights.self_s", at(Layer::ml_set_weights).self_s, "s");

    double combos = 0.0;
    double models = 0.0;
    std::size_t aggregations = 0;
    std::uint64_t reorgs = 0;
    std::uint64_t height = 0;
    net::TrafficStats traffic;
    for (const auto& result : results) {
        for (const auto& records : result.peer_records) {
            for (const auto& record : records) {
                if (record.aggregated_at == 0) continue;
                combos += static_cast<double>(record.combos.size());
                models += static_cast<double>(record.models_available);
                ++aggregations;
            }
        }
        reorgs += result.total_reorgs;
        height = std::max(height, result.chain_height);
        traffic.messages_sent += result.traffic.messages_sent;
        traffic.messages_delivered += result.traffic.messages_delivered;
        traffic.messages_dropped += result.traffic.messages_dropped;
        traffic.bytes_sent += result.traffic.bytes_sent;
    }
    m.add("fl.combos_per_aggregation",
          share(combos, static_cast<double>(aggregations)), "count");
    m.add("core.models_per_aggregation",
          share(models, static_cast<double>(aggregations)), "count");
    m.add("core.grid.busy_share",
          share(at(Layer::point).total_s,
                static_cast<double>(width) * traced_wall_s),
          "fraction");

    e2e::TransportProbe probe;
    std::size_t nodes = 0;
    for (const TracedPoint& point : traced) {
        probe.tx_received += point.probe.tx_received;
        probe.tx_duplicates += point.probe.tx_duplicates;
        probe.block_received += point.probe.block_received;
        probe.block_duplicates += point.probe.block_duplicates;
        probe.delivery_ms.insert(probe.delivery_ms.end(),
                                 point.probe.delivery_ms.begin(),
                                 point.probe.delivery_ms.end());
        probe.threads_peak = std::max(probe.threads_peak, point.probe.threads_peak);
        nodes += point.nodes;
    }
    m.add("node.tx.calls", count(at(Layer::node_tx).calls), "count");
    m.add("node.tx.self_s", at(Layer::node_tx).self_s, "s");
    m.add("node.tx.dup_share",
          share(count(probe.tx_duplicates), count(probe.tx_received)),
          "fraction");
    const e2e::Summary block_calls =
        e2e::summarize(at(Layer::node_block).durations_ms);
    m.add("node.block.calls", count(at(Layer::node_block).calls), "count");
    m.add("node.block.self_s", at(Layer::node_block).self_s, "s");
    m.add_summary("node.block.p50_ms", block_calls, block_calls.p50, "ms");
    m.add("node.block.dup_share",
          share(count(probe.block_duplicates), count(probe.block_received)),
          "fraction");

    const e2e::Summary verify = e2e::summarize(replay.sig_verify_us);
    const e2e::Summary decode = e2e::summarize(replay.tx_decode_us);
    const e2e::Summary import = e2e::summarize(replay.import_ms);
    const e2e::Summary execute = e2e::summarize(replay.execute_ms);
    m.add_summary("crypto.sig_verify_us", verify, verify.p50, "us");
    m.add_summary("crypto.tx_hash_mbps", verify,
                  share(replay.tx_hash_bytes * 1e-6, replay.tx_hash_s), "MB/s");
    m.add_summary("rlp.tx_decode_us", decode, decode.p50, "us");
    m.add_summary("chain.import_ms_p50", import, import.p50, "ms");
    m.add_summary("chain.import_ms_max", import, import.max, "ms");
    m.add_summary("vm.execute_ms_p50", execute, execute.p50, "ms");

    m.add("node.mine.calls", count(at(Layer::node_mine).calls), "count");
    m.add("node.mine.self_s", at(Layer::node_mine).self_s, "s");
    m.add("peer.publish.self_s", at(Layer::peer_publish).self_s, "s");
    m.add("chain.reorgs", count(reorgs), "count");
    m.add("chain.height", count(height), "count");

    const e2e::Summary delivery = e2e::summarize(probe.delivery_ms);
    double handler_s = 0.0;
    for (Layer layer : {Layer::node_tx, Layer::node_block,
                        Layer::node_get_block, Layer::node_other,
                        Layer::peer_publish, Layer::node_mine,
                        Layer::peer_timer}) {
        handler_s += at(layer).total_s;
    }
    m.add("net.send.self_s", at(Layer::net_send).self_s, "s");
    m.add_summary("net.delivery_p50_ms", delivery, delivery.p50, "ms");
    m.add_summary("net.delivery_p99_ms", delivery, delivery.p99, "ms");
    m.add("net.threads_peak", count(probe.threads_peak), "count");
    m.add("net.dispatch_busy_share",
          share(handler_s, static_cast<double>(nodes) * traced_wall_s),
          "fraction");
    m.add("net.messages_delivered", count(traffic.messages_delivered), "count");
    m.add("net.bytes_sent", count(traffic.bytes_sent), "bytes");
    m.add("net.drop_share",
          share(count(traffic.messages_dropped), count(traffic.messages_sent)),
          "fraction");
    m.add("trace.overhead_share", traced_wall_s / untraced_wall_s - 1.0,
          "fraction");
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    if (!parse_options(argc, argv, options)) return usage(argv[0]);

    try {
        // ---------------------------------------------------------- set-up
        std::vector<double> setup_s;
        std::optional<core::ScenarioSpec> spec;
        std::optional<fl::FlTask> task;
        double setup_total = 0.0;
        while (setup_s.size() < kMinSetups ||
               (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
            task.reset();
            const std::int64_t start = e2e::now_ns();
            spec.emplace(load_spec(options));
            task.emplace(build_task(*spec));
            setup_s.push_back(seconds_since(start));
            setup_total += setup_s.back();
        }
        std::fprintf(stderr, "[e2e] %s: %zu set-ups, median %.3f s\n",
                     spec->name.c_str(), setup_s.size(), e2e::median(setup_s));
        const bool tcp = spec->transport == "tcp";
        const std::size_t nproc = affinity_cpus();
        const std::size_t width =
            tcp ? 1 : std::max<std::size_t>(1, std::min<std::size_t>(4, nproc));
        spec->threads = width;
        const std::vector<core::ScenarioPoint> points = core::expand_grid(*spec);
        const core::DecentralizedConfig& base = spec->base;
        const std::size_t attempted_per_rep =
            points.size() * base.peers * base.rounds;

        Gates gates;

        // -------------------------------------------------- reference run
        // The grid on the deterministic sim as run_scenario runs it, but
        // with raw results: the gates read what its document lacks
        // (per-peer completion, dropped_invalid, bounded-state probes), and
        // on TCP it gives the final model digest every peer must reach.
        // Untimed, and first, so that rep 1 finds caches and lazy set-up
        // warm.
        const std::vector<core::DecentralizedResult> reference =
            run_grid(points, *task, width);
        std::vector<PointValues> reference_values;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            gates.check_deployment("reference point " + points[i].label,
                                   reference[i], base.rounds);
            reference_values.push_back(point_values(reference[i]));
        }
        const std::vector<Hash32>& sim_digests =
            reference[0].final_model_digests;

        // ----------------------------------------------------- timed reps
        std::vector<double> rep_wall;
        std::vector<double> rep_cpu;
        std::vector<std::uint64_t> rep_completed;
        std::vector<double> accuracy;                        // per rep
        std::vector<core::DecentralizedResult> tcp_results;  // per rep
        std::optional<std::string> first_doc;                // sim, rep 1's
        const std::int64_t phase_start = e2e::now_ns();
        do {
            const std::string tag = "rep " + std::to_string(rep_wall.size() + 1);
            const double cpu_start = cpu_seconds();
            const std::int64_t start = e2e::now_ns();
            std::optional<JsonValue> doc;
            if (tcp) {
                tcp_results.push_back(run_tcp(*task, base));
            } else {
                doc.emplace(core::run_scenario(*spec, *task));
            }
            rep_wall.push_back(seconds_since(start));
            rep_cpu.push_back(cpu_seconds() - cpu_start);

            std::vector<PointValues> values;
            if (tcp) {
                const core::DecentralizedResult& result = tcp_results.back();
                values.push_back(point_values(result));
                gates.check_deployment(tag, result, base.rounds);
                gates.check(digests_agree(result.final_model_digests,
                                          sim_digests),
                            tag + ": every peer's final model digest equals "
                                  "the sim reference's");
            } else {
                for (const JsonValue& point :
                     doc->find("points")->items("points")) {
                    values.push_back(point_values(point));
                }
                const std::string text = doc->dump();
                if (!first_doc.has_value()) first_doc = text;
                gates.check(values == reference_values && text == *first_doc,
                            tag + ": run_scenario document equals the "
                                  "reference grid point by point and rep 1's "
                                  "document byte for byte");
            }
            std::uint64_t completed = 0;
            double acc = 0.0;
            for (const PointValues& v : values) {
                completed += v.aggregated_rounds;
                acc += v.final_accuracy;
            }
            rep_completed.push_back(completed);
            accuracy.push_back(acc / static_cast<double>(values.size()));
            std::fprintf(stderr,
                         "[e2e] %s: %.3f s wall, %.3f s cpu, %llu/%zu "
                         "peer-rounds\n",
                         tag.c_str(), rep_wall.back(), rep_cpu.back(),
                         static_cast<unsigned long long>(completed),
                         attempted_per_rep);
        } while (seconds_since(phase_start) < options.seconds);
        const double rss_mb = peak_rss_mb();

        // ------------------------------------------------------- metrics
        std::vector<double> rates;
        std::vector<double> cpu_per_round;
        std::uint64_t completed = 0;
        for (std::size_t i = 0; i < rep_wall.size(); ++i) {
            completed += rep_completed[i];
            const auto done = static_cast<double>(rep_completed[i]);
            rates.push_back(done / rep_wall[i]);
            cpu_per_round.push_back(done > 0 ? rep_cpu[i] / done : 0.0);
        }
        const std::uint64_t attempted = attempted_per_rep * rep_wall.size();
        // Sim round times are simulated seconds, equal in every rep and in
        // the reference run; TCP ones are wall seconds of the timed reps.
        const std::vector<double> rounds_s =
            round_durations(tcp ? tcp_results : reference);
        const e2e::Summary rounds = e2e::summarize(rounds_s);
        JsonValue end_to_end =
            JsonValue::object()
                .set("setup_s", e2e::median(setup_s))
                .set("peer_rounds_per_s", e2e::median(rates))
                .set("cpu_s_per_round", e2e::median(cpu_per_round))
                .set("peak_rss_mb", rss_mb)
                .set("round_mean_s",
                     rounds.n ? rounds.sum / static_cast<double>(rounds.n) : 0.0);

        JsonValue setup_list = JsonValue::array();
        for (double s : setup_s) setup_list.push(s);
        JsonValue reps = JsonValue::array();
        for (std::size_t i = 0; i < rep_wall.size(); ++i) {
            reps.push(JsonValue::object()
                          .set("wall_s", rep_wall[i])
                          .set("cpu_s", rep_cpu[i])
                          .set("completed_peer_rounds", rep_completed[i]));
        }

        JsonValue out =
            JsonValue::object()
                .set("workload", spec->name)
                .set("transport", spec->transport)
                .set("seed", base.seed)
                .set("data_seed", spec->data.seed)
                .set("host",
                     JsonValue::object()
                         .set("nproc", static_cast<std::uint64_t>(nproc))
                         .set("hardware_concurrency",
                              std::thread::hardware_concurrency())
                         .set("engine_threads", static_cast<std::uint64_t>(width))
                         .set("compiler", BCFL_E2E_COMPILER))
                .set("grid_points", static_cast<std::uint64_t>(points.size()))
                .set("setup_s_samples", std::move(setup_list))
                .set("reps", std::move(reps))
                .set("round_samples", static_cast<std::uint64_t>(rounds.n))
                .set("round_p50_s", rounds.p50)
                .set("round_max_s", rounds.max)
                .set("final_accuracy", e2e::median(accuracy))
                .set("end_to_end", std::move(end_to_end));
        if (!tcp) {
            out.set("paper_ordering", paper_ordering(points, reference_values));
        }

        // ----------------------------------------------------- traced run
        if (!options.trace_path.empty()) {
            e2e::Tracer tracer;
            e2e::MessageLog log;
            const fl::FlTask timed = e2e::timed_task(*task, tracer);
            std::vector<TracedPoint> traced(tcp ? 1 : points.size());
            std::vector<core::DecentralizedResult> results;
            const std::int64_t start = e2e::now_ns();
            if (tcp) {
                results.push_back(run_tcp(timed, base, &tracer, &log, traced.data()));
            } else {
                results = run_grid(points, timed, width, &tracer, &log, &traced);
            }
            const double traced_wall = seconds_since(start);
            std::fprintf(stderr, "[e2e] traced run: %.3f s\n", traced_wall);
            if (tcp) {
                gates.check_deployment("traced tcp run", results[0], base.rounds);
                gates.check(digests_agree(results[0].final_model_digests,
                                          sim_digests),
                            "traced tcp final model digests equal the sim "
                            "reference's");
            } else {
                bool same = true;
                for (std::size_t i = 0; i < results.size(); ++i) {
                    gates.check_deployment("traced point " + points[i].label,
                                           results[i], base.rounds);
                    same = same && point_values(results[i]) == reference_values[i];
                }
                gates.check(same,
                            "traced grid equals the reference grid point by "
                            "point (mean_round_s, final_accuracy, "
                            "messages_sent, aggregated_rounds)");
            }

            const std::int64_t replay_start = e2e::now_ns();
            const e2e::ReplayResult replayed =
                e2e::replay(log.take(), tcp ? base : points[0].config);
            std::fprintf(stderr,
                         "[e2e] replay: %zu txs, %zu blocks in %.3f s\n",
                         replayed.tx_decode_us.size(),
                         replayed.import_ms.size(), seconds_since(replay_start));
            gates.check(replayed.signatures_valid &&
                            replayed.blocks_not_imported == 0,
                        "replay: every logged signature verifies and every "
                        "logged block imports (" +
                            std::to_string(replayed.blocks_imported) + ")");

            const LayerMetrics layers = layer_metrics(
                tracer, results, traced, replayed, width, traced_wall,
                e2e::median(rep_wall));
            out.set("per_layer", layers.values);
            out.set("per_layer_samples", layers.samples);
            core::write_scenario_json(options.trace_path, tracer.chrome_trace());
            out.set("trace_file", options.trace_path);
        }

        // A failed gate means no output of the run can be trusted, so every
        // attempted peer-round counts as failed.
        const std::uint64_t failed = gates.ok ? attempted - completed : attempted;
        out.set("attempted", attempted)
            .set("failed", failed)
            .set("failed_round_share", static_cast<double>(failed) /
                                           static_cast<double>(attempted));
        out.set("gates", std::move(gates.list));
        out.set("correct", gates.ok);
        std::printf("%s\n", out.dump().c_str());
        return gates.ok ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "bcfl_e2e: %s\n", error.what());
        return 2;
    }
}
