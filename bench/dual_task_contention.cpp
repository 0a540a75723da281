// E5 — the paper's real-deployment observation: "resource exhaustion due to
// dual tasks on one peer (mining and training model), a scenario that
// similar research with simulation experiments do not encounter."
//
// (a) a single miner under increasing training CPU load: block interval
//     inflates as 1/(1-load). The full-deployment half (b) is the
//     scenarios/paper_contention.json spec.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "net/sim_transport.hpp"

namespace {

using namespace bcfl;

bench::Json g_miner_points = bench::Json::array();

void BM_MinerUnderLoad(benchmark::State& state) {
    for (auto _ : state) {
        bench::print_title(
            "E5a — block interval vs training CPU load (single miner, fixed "
            "difficulty)");
        std::printf("%12s %22s %14s\n", "cpu load", "mean interval (s)",
                    "blocks");
        for (double load : {0.0, 0.25, 0.5, 0.75, 0.9}) {
            net::SimTransport transport(net::LinkParams{}, 3);
            node::NodeConfig config;
            config.chain.initial_difficulty = 800;
            config.chain.min_difficulty = 800;
            config.chain.fixed_difficulty = true;
            config.key_seed = 21;
            config.hash_rate = 400.0;
            node::Node node(transport, config);
            node.set_compute_load(load);
            node.start();
            transport.sim().run_until(net::seconds(3000));
            const double interval =
                node.chain().height() > 0
                    ? 3000.0 / static_cast<double>(node.chain().height())
                    : 0.0;
            std::printf("%12.2f %22.2f %14llu\n", load, interval,
                        static_cast<unsigned long long>(node.chain().height()));
            g_miner_points.push(bench::Json::object()
                                    .set("cpu_load", load)
                                    .set("mean_interval_s", interval)
                                    .set("blocks", node.chain().height()));
        }
    }
}

}  // namespace

BENCHMARK(BM_MinerUnderLoad)->Unit(benchmark::kSecond)->Iterations(1);

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::write_bench_json(
        "dual_task_contention",
        bench::Json::object()
            .set("bench", "dual_task_contention")
            .set("miner_under_load", std::move(g_miner_points)));
    return 0;
}
