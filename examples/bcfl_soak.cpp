// bcfl_soak — sustained-load runner over either transport backend.
//
// Drives the same declarative ScenarioSpec (schema: docs/scenarios.md) that
// the grid engine runs, but through the transport seam: one deployment,
// base config only (the sweep is ignored), over the deterministic
// simulation or real loopback TCP sockets:
//
//   $ ./build/examples/bcfl_soak scenarios/soak_smoke.json
//   $ ./build/examples/bcfl_soak scenarios/ci_smoke.json --transport=sim
//
// Unlike bcfl_scenario, whose whole contract is byte-identical JSON, the
// soak runner's contract is *invariants under load*: it asserts the
// bounded-state guarantees (gossip seen-set ≤ 2 generations, tx pool
// pruned, nonce snapshots within the horizon) on every node after the run,
// that every peer completed at least --min-rounds rounds, and — with
// --require-consensus — that every peer's final model digest is identical.
// Any violated gate exits nonzero, which is what CI's soak-smoke job keys
// on.
//
// Flags:
//   --transport=sim|tcp   backend            [spec "transport", else sim]
//   --rounds=N            override spec rounds
//   --max-seconds=N       override the (sim or wall) time cap
//   --min-rounds=N        completion gate per peer          [1]
//   --require-consensus   gate on identical final digests
//   --out=PATH            also write a JSON report
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace {

using namespace bcfl;

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <spec.json> [--transport=sim|tcp] [--rounds=N] "
                 "[--max-seconds=N] [--min-rounds=N] [--require-consensus] "
                 "[--out=PATH]\n",
                 argv0);
    return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

/// One gate: prints PASS/FAIL and accumulates the overall verdict.
struct Gates {
    bool ok = true;
    void check(bool condition, const std::string& what) {
        std::printf("  [%s] %s\n", condition ? "PASS" : "FAIL", what.c_str());
        if (!condition) ok = false;
    }
};

}  // namespace

int main(int argc, char** argv) {
    std::string spec_path;
    std::string out_path;
    std::string transport_flag;
    std::uint64_t rounds_override = 0;
    std::uint64_t max_seconds_override = 0;
    std::uint64_t min_rounds = 1;
    bool require_consensus = false;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--transport=", 12) == 0) {
            transport_flag = arg + 12;
            if (transport_flag != "sim" && transport_flag != "tcp") {
                std::fprintf(stderr, "invalid --transport: %s\n", arg + 12);
                return usage(argv[0]);
            }
        } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
            if (!parse_u64(arg + 9, rounds_override)) return usage(argv[0]);
        } else if (std::strncmp(arg, "--max-seconds=", 14) == 0) {
            if (!parse_u64(arg + 14, max_seconds_override)) {
                return usage(argv[0]);
            }
        } else if (std::strncmp(arg, "--min-rounds=", 13) == 0) {
            if (!parse_u64(arg + 13, min_rounds)) return usage(argv[0]);
        } else if (std::strcmp(arg, "--require-consensus") == 0) {
            require_consensus = true;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            out_path = arg + 6;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown flag: %s\n", arg);
            return usage(argv[0]);
        } else if (spec_path.empty()) {
            spec_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (spec_path.empty()) return usage(argv[0]);

    try {
        core::ScenarioSpec spec = core::load_scenario_file(spec_path);
        if (spec.mode == "vanilla") {
            // A vanilla spec has no chain deployment; soaking spec.base
            // would silently run one the spec never described.
            throw Error("bcfl_soak: \"" + spec.name +
                        "\" is a \"mode\": \"vanilla\" spec — centralized "
                        "FL has no deployment to soak; run it through "
                        "bcfl_scenario");
        }
        const std::string backend =
            transport_flag.empty() ? spec.transport : transport_flag;
        core::DecentralizedConfig config = spec.base;
        if (rounds_override != 0) config.rounds = rounds_override;
        if (max_seconds_override != 0) {
            config.max_sim_time = net::seconds(max_seconds_override);
        }
        if (!spec.sweep.empty()) {
            std::printf("note: spec has a sweep grid (%zu axes) — the soak "
                        "runner uses the base config only\n",
                        spec.sweep.size());
        }

        std::printf("soak %s: transport=%s peers=%zu rounds=%zu policy=%s "
                    "aggregation=%s\n",
                    spec.name.c_str(), backend.c_str(), config.peers,
                    config.rounds, config.wait_policy.c_str(),
                    config.aggregation.c_str());

        const fl::FlTask task = core::make_scenario_task(spec);

        core::DecentralizedResult result;
        if (backend == "tcp") {
            // Every peer trains inside its own dispatch thread; force the
            // compute engine serial so N concurrent rounds do not fan out
            // N * hardware_concurrency workers on one machine.
            core::parallel::ThreadCountOverride serial(1);
            net::TcpTransport transport;
            result = core::run_decentralized(task, config, transport);
        } else {
            result = core::run_decentralized(task, config);
        }

        // ------------------------------------------------------------ report
        std::printf("\nfinished at %.1f s (%s time), chain height %llu, "
                    "reorgs %llu\n",
                    net::to_seconds(result.finished_at),
                    backend == "tcp" ? "wall" : "sim",
                    static_cast<unsigned long long>(result.chain_height),
                    static_cast<unsigned long long>(result.total_reorgs));
        std::printf("traffic: sent=%llu delivered=%llu dropped=%llu "
                    "(invalid=%llu) bytes=%llu\n",
                    static_cast<unsigned long long>(
                        result.traffic.messages_sent),
                    static_cast<unsigned long long>(
                        result.traffic.messages_delivered),
                    static_cast<unsigned long long>(
                        result.traffic.messages_dropped),
                    static_cast<unsigned long long>(
                        result.traffic.dropped_invalid),
                    static_cast<unsigned long long>(
                        result.traffic.bytes_sent));
        std::printf("%6s %8s %11s %18s\n", "peer", "rounds", "final acc",
                    "final digest");
        for (std::size_t i = 0; i < result.peer_records.size(); ++i) {
            const auto& records = result.peer_records[i];
            const double accuracy =
                records.empty() ? 0.0 : records.back().chosen_accuracy;
            const std::string digest =
                i < result.final_model_digests.size()
                    ? result.final_model_digests[i].hex().substr(0, 16)
                    : "-";
            std::printf("%6zu %8zu %11.4f %18s\n", i, records.size(),
                        accuracy, digest.c_str());
        }

        // ------------------------------------------------------------- gates
        std::printf("\ngates:\n");
        Gates gates;
        for (std::size_t i = 0; i < result.peer_records.size(); ++i) {
            gates.check(result.peer_records[i].size() >= min_rounds,
                        "peer " + std::to_string(i) + " completed >= " +
                            std::to_string(min_rounds) + " round(s) (got " +
                            std::to_string(result.peer_records[i].size()) +
                            ")");
        }
        for (std::size_t i = 0; i < result.node_probes.size(); ++i) {
            const core::NodeStateProbe& probe = result.node_probes[i];
            const std::string node = "node " + std::to_string(i) + " ";
            // Two-generation scheme: the live set plus one frozen one.
            gates.check(
                probe.gossip_seen_size <= 2 * probe.gossip_seen_cap,
                node + "gossip seen-set " +
                    std::to_string(probe.gossip_seen_size) + " <= 2 x cap " +
                    std::to_string(probe.gossip_seen_cap));
            // Stale pruning bounds the pool by what is still pending; a
            // soak that leaks pooled txs blows far past this margin.
            gates.check(probe.pool_size <= probe.gossip_seen_cap,
                        node + "tx pool " + std::to_string(probe.pool_size) +
                            " bounded (<= " +
                            std::to_string(probe.gossip_seen_cap) + ")");
            // Horizon pruning keeps snapshots near the tip; side branches
            // can pin a handful past it, never a multiple of it.
            gates.check(
                probe.nonce_snapshots_held <=
                    probe.nonce_snapshot_horizon + probe.total_blocks -
                        probe.chain_height,
                node + "nonce snapshots " +
                    std::to_string(probe.nonce_snapshots_held) +
                    " within horizon " +
                    std::to_string(probe.nonce_snapshot_horizon));
        }
        if (require_consensus) {
            bool consensus = !result.final_model_digests.empty();
            for (const Hash32& digest : result.final_model_digests) {
                consensus =
                    consensus && digest == result.final_model_digests[0];
            }
            gates.check(consensus,
                        "all peers converged to one final model digest");
        }

        if (!out_path.empty()) {
            core::JsonValue peers = core::JsonValue::array();
            for (std::size_t i = 0; i < result.peer_records.size(); ++i) {
                const auto& records = result.peer_records[i];
                peers.push(
                    core::JsonValue::object()
                        .set("peer", static_cast<std::uint64_t>(i))
                        .set("rounds",
                             static_cast<std::uint64_t>(records.size()))
                        .set("final_accuracy",
                             records.empty()
                                 ? 0.0
                                 : records.back().chosen_accuracy)
                        .set("final_digest",
                             i < result.final_model_digests.size()
                                 ? result.final_model_digests[i].hex()
                                 : ""));
            }
            core::JsonValue doc =
                core::JsonValue::object()
                    .set("bench", "soak_" + spec.name)
                    .set("transport", backend)
                    .set("gates_passed", gates.ok)
                    .set("finished_at_s",
                         net::to_seconds(result.finished_at))
                    .set("chain_height", result.chain_height)
                    .set("messages_sent", result.traffic.messages_sent)
                    .set("messages_dropped",
                         result.traffic.messages_dropped)
                    .set("dropped_invalid", result.traffic.dropped_invalid)
                    .set("bytes_sent", result.traffic.bytes_sent)
                    .set("peers", std::move(peers));
            core::write_scenario_json(out_path, doc);
            std::printf("\n[soak json] wrote %s\n", out_path.c_str());
        }

        std::printf("\n%s\n", gates.ok ? "SOAK PASS" : "SOAK FAIL");
        return gates.ok ? 0 : 1;
    } catch (const Error& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
