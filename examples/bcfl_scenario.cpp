// bcfl_scenario — declarative scenario runner.
//
// Executes a JSON ScenarioSpec (schema: docs/scenarios.md), fanning the
// sweep grid out through the deterministic compute engine, and writes one
// BENCH-schema JSON document per run:
//
//   $ ./build/examples/bcfl_scenario scenarios/paper_tradeoff.json
//   $ ./build/examples/bcfl_scenario scenarios/paper_vanilla_simple.json
//   $ ./build/examples/bcfl_scenario scenarios/churn.json --list
//   $ ./build/examples/bcfl_scenario spec.json --out=/tmp/result.json
//
// Flags:
//   --list        expand and print the sweep grid without running it
//   --out=PATH    output path        [BENCH_scenario_<name>.json in CWD]
//   --threads=N   grid fan-out width, 0-1024 [spec "threads", else
//                 BCFL_THREADS / hardware default]
//
// Output is a pure function of (spec, seed): the same spec produces
// byte-identical JSON at any thread setting, which is what lets CI diff it
// against bench/baselines/.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"

namespace {

using namespace bcfl;

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <spec.json> [--list] [--out=PATH] "
                 "[--threads=N]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string spec_path;
    std::string out_path;
    bool list_only = false;
    std::size_t threads_flag = 0;
    bool threads_set = false;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            list_only = true;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            out_path = arg + 6;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            const std::optional<std::size_t> threads =
                core::parallel::parse_thread_count(arg + 10);
            if (!threads.has_value()) {
                std::fprintf(stderr,
                             "invalid --threads value: %s (want 0-%zu)\n",
                             arg + 10, core::parallel::kMaxThreads);
                return usage(argv[0]);
            }
            threads_flag = *threads;
            threads_set = true;
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
        if (threads_set) spec.threads = threads_flag;
        const auto points = core::expand_grid(spec);

        std::printf("scenario %s: mode=%s model=%s peers=%zu rounds=%zu "
                    "seed=%llu grid=%zu point%s\n",
                    spec.name.c_str(), spec.mode.c_str(), spec.model.c_str(),
                    spec.base.peers, spec.base.rounds,
                    static_cast<unsigned long long>(spec.base.seed),
                    points.size(), points.size() == 1 ? "" : "s");
        if (list_only) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                std::printf("  [%2zu] %s\n", i, points[i].label.c_str());
            }
            return 0;
        }

        const core::JsonValue doc = core::run_scenario(spec);

        // One table row per point, from the document itself, so what is
        // printed is exactly what lands in the JSON. Vanilla points have no
        // chain: their rows show only the accuracies they carry.
        const bool vanilla = spec.mode == "vanilla";
        if (vanilla) {
            std::printf("%-44s %9s %9s\n", "point", "final acc", "agg. acc");
        } else {
            std::printf("%-44s %10s %10s %8s %9s %9s %8s\n", "point",
                        "round (s)", "wait (s)", "models", "final acc",
                        "dropped", "reorgs");
        }
        for (const core::JsonValue& point :
             doc.find("points")->items("points")) {
            if (vanilla) {
                std::printf(
                    "%-44s %9.4f %9.4f\n",
                    point.find("label")->as_string("label").c_str(),
                    point.find("final_accuracy")->as_double("final_accuracy"),
                    point.find("aggregator_accuracy")
                        ->items("aggregator_accuracy")
                        .back()
                        .as_double("aggregator_accuracy"));
                continue;
            }
            std::printf(
                "%-44s %10.1f %10.1f %8.2f %9.4f %9llu %8llu\n",
                point.find("label")->as_string("label").c_str(),
                point.find("mean_round_s")->as_double("mean_round_s"),
                point.find("mean_wait_s")->as_double("mean_wait_s"),
                point.find("mean_models_used")
                    ->as_double("mean_models_used"),
                point.find("final_accuracy")->as_double("final_accuracy"),
                static_cast<unsigned long long>(
                    point.find("messages_dropped")
                        ->as_u64("messages_dropped")),
                static_cast<unsigned long long>(
                    point.find("reorgs")->as_u64("reorgs")));
        }

        if (out_path.empty()) {
            out_path = "BENCH_scenario_" + spec.name + ".json";
        }
        core::write_scenario_json(out_path, doc);
        std::printf("\n[scenario json] wrote %s\n", out_path.c_str());
        return 0;
    } catch (const Error& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
