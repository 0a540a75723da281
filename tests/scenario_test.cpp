#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "fl/task.hpp"
#include "fl/vanilla.hpp"
#include "ml/data.hpp"

namespace bcfl::core {
namespace {

// ------------------------------------------------------------- JsonValue

TEST(JsonValue, ParsesScalarsArraysAndObjects) {
    const JsonValue doc = JsonValue::parse(
        R"({"s":"hi\n","i":-3,"f":2.5,"b":true,"n":null,"a":[1,2]})");
    EXPECT_EQ(doc.find("s")->as_string("s"), "hi\n");
    EXPECT_EQ(doc.find("f")->as_double("f"), 2.5);
    EXPECT_TRUE(doc.find("b")->as_bool("b"));
    EXPECT_EQ(doc.find("a")->items("a").size(), 2u);
    EXPECT_EQ(doc.find("missing"), nullptr);
    // -3 is an integer but not a u64.
    EXPECT_THROW((void)doc.find("i")->as_u64("i"), Error);
    EXPECT_EQ(doc.find("i")->as_double("i"), -3.0);
}

TEST(JsonValue, DumpRoundTripsPreservingMemberOrder) {
    const std::string text =
        R"({"z":1,"a":[true,null,"x"],"m":{"k":0.5}})";
    EXPECT_EQ(JsonValue::parse(text).dump(), text);
}

TEST(JsonValue, RejectsMalformedDocuments) {
    EXPECT_THROW((void)JsonValue::parse(""), Error);
    EXPECT_THROW((void)JsonValue::parse("{"), Error);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":}"), Error);
    EXPECT_THROW((void)JsonValue::parse("[1,]"), Error);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":1} trailing"), Error);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":1e}"), Error);
    EXPECT_THROW((void)JsonValue::parse("\"\\q\""), Error);
    EXPECT_THROW((void)JsonValue::parse("\"\n\""), Error);
    EXPECT_THROW((void)JsonValue::parse("nulx"), Error);
    // Duplicate members are how a spec silently runs the wrong experiment.
    EXPECT_THROW((void)JsonValue::parse(R"({"a":1,"a":2})"), Error);
    // Nesting deeper than the parser cap.
    std::string deep;
    for (int i = 0; i < 64; ++i) deep += "[";
    EXPECT_THROW((void)JsonValue::parse(deep), Error);
}

TEST(Json, NestingDepthCapBoundary) {
    // The parser admits 33 nesting levels (root at depth 0, cap at 32);
    // the 34th throws. Pin both sides so the cap can't silently drift.
    const auto nested = [](int levels) {
        return std::string(levels, '[') + std::string(levels, ']');
    };
    EXPECT_NO_THROW((void)JsonValue::parse(nested(33)));
    EXPECT_THROW((void)JsonValue::parse(nested(34)), Error);
}

// ---------------------------------------------------------- spec parsing

std::string minimal_spec(const std::string& extra = "") {
    return R"({"name":"t","rounds":2,"train_seconds":10)" + extra + "}";
}

/// Parse must fail AND the message must carry `expect` — negative paths
/// that merely throw with a generic message do not count as diagnostics.
void expect_parse_error(const std::string& text, const std::string& expect) {
    try {
        (void)parse_scenario(text);
        FAIL() << "expected a parse failure mentioning \"" << expect << "\"";
    } catch (const Error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(expect), std::string::npos)
            << "got: " << what << "\nwanted substring: " << expect;
    }
}

/// A centralized (Table I) spec: no chain keys, so minimal_spec's
/// train_seconds would be a dead knob here.
std::string vanilla_spec(const std::string& extra = "") {
    return R"({"name":"v","mode":"vanilla","rounds":2)" + extra + "}";
}

TEST(ScenarioSpec, DefaultsComeFromPaperSetup) {
    const ScenarioSpec spec = parse_scenario(minimal_spec());
    EXPECT_EQ(spec.name, "t");
    EXPECT_EQ(spec.model, "simple");
    EXPECT_EQ(spec.base.peers, 3u);
    EXPECT_EQ(spec.base.rounds, 2u);
    EXPECT_EQ(spec.base.train_duration, net::seconds(10));
    EXPECT_EQ(spec.base.aggregation, "best_combination");
    EXPECT_TRUE(spec.base.conditions.empty());
    EXPECT_EQ(spec.data.clients, spec.base.peers);
    EXPECT_TRUE(expand_grid(spec).size() == 1);
}

TEST(ScenarioSpec, RejectsUnknownKeysEverywhere) {
    EXPECT_THROW((void)parse_scenario(minimal_spec(R"(,"frobnicate":1)")),
                 Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"network":{"lag_ms":5})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"data":{"samples":5})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"links":[{"a":0,"b":1,"speed":3}]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"default_latency":{"dist":"fixed","lo_ms":1}})")),
        Error);
}

TEST(ScenarioSpec, RejectsInvalidValues) {
    // Bad policy spec strings fail at parse, not mid-deployment.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"wait_policy":"wait_for=")")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"aggregation":"median")")),
        Error);
    EXPECT_THROW((void)parse_scenario(minimal_spec(R"(,"loss":1.5)")),
                 Error);
    EXPECT_THROW((void)parse_scenario("{\"name\":\"t\",\"rounds\":0}"),
                 Error);
    EXPECT_THROW((void)parse_scenario("{\"name\":\"Bad Name\"}"), Error);
    EXPECT_THROW((void)parse_scenario("{\"rounds\":1}"), Error);  // no name
    // Peer references outside the roster.
    EXPECT_THROW((void)parse_scenario(minimal_spec(R"(,"stragglers":[7])")),
                 Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"churn":[{"peer":9,"offline":[[1,2]]}]})")),
        Error);
    // The same knob in two places would let document order pick a winner.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"loss":0.1,"network":{"loss":0.2})")),
        Error);
    // latency_ms/jitter are dead while default_latency replaces the
    // fixed-latency model — even as a sweep axis.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"latency_ms":5,"network":{"default_latency":{"dist":"fixed","ms":10}})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"default_latency":{"dist":"fixed","ms":10}},"sweep":{"jitter":[0.0,0.2]})")),
        Error);
    // A link override must name both endpoints, or it silently lands on
    // the default-constructed pair.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"links":[{"b":2,"loss":0.5}]})")),
        Error);
    // Silent-override shapes: duplicate pair overrides, a peer in two
    // partition groups, negative join delays.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"links":[{"a":0,"b":2,"loss":0.1},{"a":2,"b":0,"loss":0.2}]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"partitions":[{"from_s":1,"until_s":9,"groups":[[0,1],[1,2]]}]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"join_delays_s":[-90,0])")),
        Error);
    // Degenerate windows and ranges.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"partitions":[{"from_s":9,"until_s":9,"groups":[[0]]}]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"churn":[{"peer":1,"offline":[[5,2]]}]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"network":{"default_latency":{"dist":"uniform","lo_ms":50,"hi_ms":10}})")),
        Error);
    // Vanilla mode: an unknown mode, and every chain knob is dead there —
    // at top level, as a sweep axis, or as an aggregation the central
    // server does not run.
    expect_parse_error(minimal_spec(R"(,"mode":"central")"), "\"mode\"");
    const std::string dead = "has no effect in vanilla mode";
    expect_parse_error(vanilla_spec(R"(,"wait_policy":"wait_all")"), dead);
    expect_parse_error(vanilla_spec(R"(,"network":{"loss":0.1})"), dead);
    expect_parse_error(vanilla_spec(R"(,"transport":"tcp")"), dead);
    expect_parse_error(vanilla_spec(R"(,"topology":{"cluster_size":2})"),
                       dead);
    expect_parse_error(vanilla_spec(R"(,"aggregation":"trimmed_mean")"),
                       dead);
    expect_parse_error(
        vanilla_spec(R"(,"aggregation":"best_combination,fitness=0.1")"),
        dead);
    expect_parse_error(vanilla_spec(R"(,"sweep":{"loss":[0.0,0.1]})"), dead);
    expect_parse_error(
        vanilla_spec(R"(,"sweep":{"aggregation":["consider","trimmed_mean"]})"),
        dead);
    // The 2^n-1 consider search keeps its width bound in vanilla mode.
    expect_parse_error(vanilla_spec(R"(,"peers":12)"), "exponential");
    EXPECT_NO_THROW((void)parse_scenario(
        vanilla_spec(R"(,"peers":12,"aggregation":"not_consider")")));
}

TEST(ScenarioSpec, ThreadCountsAreBoundedAtParse) {
    // Parse-only: nothing here starts a thread. The parser behind
    // --threads and BCFL_THREADS takes digits up to the engine's cap and
    // nothing else, so a leading '-' cannot wrap around to 2^64-1.
    EXPECT_EQ(parallel::parse_thread_count("0"), std::size_t{0});
    EXPECT_EQ(parallel::parse_thread_count("1024"), parallel::kMaxThreads);
    for (const char* bad : {"-1", "1025", "18446744073709551615", "+4", " 4",
                            "4x", ""}) {
        EXPECT_FALSE(parallel::parse_thread_count(bad).has_value()) << bad;
    }
    EXPECT_EQ(parse_scenario(minimal_spec(R"(,"threads":1024)")).threads,
              parallel::kMaxThreads);
    expect_parse_error(minimal_spec(R"(,"threads":1025)"), "\"threads\"");
    expect_parse_error(minimal_spec(R"(,"threads":-1)"), "\"threads\"");
}

TEST(ScenarioSpec, RejectsInvalidSweeps) {
    // Empty value array.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"sweep":{"loss":[]})")),
        Error);
    // Unknown / non-sweepable axes.
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"sweep":{"bogus":[1]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(R"(,"sweep":{"peers":[2,3]})")),
        Error);
    // A sweep value that fails the same validation as a top-level value.
    EXPECT_THROW(
        (void)parse_scenario(
            minimal_spec(R"(,"sweep":{"loss":[0.1,2.0]})")),
        Error);
    EXPECT_THROW(
        (void)parse_scenario(
            minimal_spec(R"(,"sweep":{"wait_policy":["nonsense"]})")),
        Error);
    // Duplicate axis (caught as a duplicate JSON member).
    EXPECT_THROW(
        (void)parse_scenario(minimal_spec(
            R"(,"sweep":{"loss":[0.1],"loss":[0.2]})")),
        Error);
    // Grid blow-up past the cap (33 * 32 = 1056 > 1024).
    std::string big_a = "[";
    for (int i = 0; i < 33; ++i) {
        if (i) big_a += ",";
        big_a += std::to_string(i);
    }
    big_a += "]";
    std::string big_b = "[";
    for (int i = 0; i < 32; ++i) {
        if (i) big_b += ",";
        big_b += std::to_string(i);
    }
    big_b += "]";
    EXPECT_THROW((void)parse_scenario(minimal_spec(
                     R"(,"sweep":{"seed":)" + big_a +
                     R"(,"payload_pad_bytes":)" + big_b + "}")),
                 Error);
}

TEST(ScenarioSpec, RejectsBrokenTopologies) {
    // Unknown keys inside "topology" cite the offending value's byte
    // offset, like every other parse diagnostic.
    expect_parse_error(
        minimal_spec(R"(,"peers":6,"topology":{"cluster_sz":3})"), "offset");
    expect_parse_error(
        minimal_spec(R"(,"peers":6,"topology":{"cluster_sz":3})"),
        "unknown key");
    // Partition defects surface at parse time, not mid-deployment, and
    // point back at the topology object.
    expect_parse_error(
        minimal_spec(
            R"(,"peers":4,"topology":{"clusters":[[0,1],[1,2,3]]})"),
        "two clusters");
    expect_parse_error(
        minimal_spec(R"(,"peers":4,"topology":{"clusters":[[0,1],[]]})"),
        "empty");
    expect_parse_error(
        minimal_spec(
            R"(,"peers":4,"topology":{"clusters":[[0,1],[2,3,7]]})"),
        "outside the roster");
    expect_parse_error(
        minimal_spec(R"(,"peers":4,"topology":{"clusters":[[0,1],[2,3]],)"
                     R"("heads":[0,3,2]})"),
        "one head per cluster");
    expect_parse_error(
        minimal_spec(R"(,"peers":4,"topology":{"clusters":[[0,1],[2,3]],)"
                     R"("heads":[0,1]})"),
        "not a member");
    expect_parse_error(
        minimal_spec(R"(,"peers":4,"topology":{"clusters":[[0,1]]})"),
        "in no cluster");
    expect_parse_error(
        minimal_spec(R"(,"peers":4,"topology":{"cluster_size":9})"),
        "exceeds the peer count");
    // The sweepable knob in two places would let document order win.
    expect_parse_error(
        minimal_spec(R"(,"peers":4,"cluster_size":2,)"
                     R"("topology":{"cluster_size":2})"),
        "one place");
    // A bad cluster_size sweep value fails the dry-apply, citing its own
    // byte offset.
    expect_parse_error(
        minimal_spec(
            R"(,"peers":4,"aggregation":"fedavg_all","sweep":{"cluster_size":[0,9]})"),
        "sweep:");
    expect_parse_error(
        minimal_spec(
            R"(,"peers":4,"aggregation":"fedavg_all","sweep":{"cluster_size":[0,9]})"),
        "offset");
    // Combination-search width guards: the default flat aggregation is
    // best_combination, so a wide flat roster is rejected outright...
    expect_parse_error(minimal_spec(R"(,"peers":12)"), "aggregation");
    // ...and per-tier, the widths that matter are the cluster fan-in and
    // the head count, not the roster.
    expect_parse_error(
        minimal_spec(
            R"(,"peers":24,"aggregation":"fedavg_all","topology":{)"
            R"("cluster_size":12,"head_aggregation":"best_combination"})"),
        "topology.head_aggregation");
    expect_parse_error(
        minimal_spec(
            R"(,"peers":24,"aggregation":"fedavg_all","topology":{)"
            R"("cluster_size":2,"top_aggregation":"best_combination"})"),
        "topology.top_aggregation");
    // Roster cap.
    expect_parse_error(minimal_spec(R"(,"peers":600)"), "[2, 512]");
}

TEST(ScenarioSpec, NetworkSectionNamesPeersOfLargeRosters) {
    // Links, partition groups and churn may name any peer of the roster,
    // past index 255 too...
    const std::string roster = R"(,"peers":320,"cluster_size":16,)";
    const ScenarioSpec spec = parse_scenario(minimal_spec(
        roster + R"("network":{"links":[{"a":310,"b":0,"loss":0.1}],)"
                 R"("partitions":[{"from_s":1,"until_s":9,"groups":[[305]]}],)"
                 R"("churn":[{"peer":300,"offline":[[10,20]]}]})"));
    const net::NetworkConditions& conditions = spec.base.conditions;
    ASSERT_EQ(conditions.links.size(), 1u);
    EXPECT_EQ(conditions.links[0].a, 310u);
    EXPECT_TRUE(conditions.partitions[0].separates(305, 0));
    EXPECT_TRUE(conditions.offline(300, net::seconds(15)));
    // ...but not one outside it.
    expect_parse_error(
        minimal_spec(roster +
                     R"("network":{"churn":[{"peer":320,"offline":[[10,20]]}]})"),
        "outside the peer set");
}

TEST(ScenarioSpec, ParsesNetworkConditions) {
    const ScenarioSpec spec = parse_scenario(minimal_spec(R"(,"network":{
        "default_latency":{"dist":"lognormal","median_ms":40,"sigma":0.6},
        "links":[{"a":0,"b":2,"loss":0.25,
                  "latency":{"dist":"uniform","lo_ms":5,"hi_ms":50}}],
        "partitions":[{"from_s":60,"until_s":120,"groups":[[0,1],[2]]}],
        "churn":[{"peer":1,"offline":[[10,20],[30,40]]}]})"));
    const net::NetworkConditions& conditions = spec.base.conditions;
    ASSERT_TRUE(conditions.default_latency.has_value());
    EXPECT_EQ(conditions.default_latency->kind,
              net::LatencyDist::Kind::lognormal);
    ASSERT_EQ(conditions.links.size(), 1u);
    EXPECT_EQ(conditions.links[0].a, 0u);
    EXPECT_EQ(conditions.links[0].b, 2u);
    ASSERT_TRUE(conditions.links[0].loss_rate.has_value());
    EXPECT_DOUBLE_EQ(*conditions.links[0].loss_rate, 0.25);
    ASSERT_EQ(conditions.partitions.size(), 1u);
    EXPECT_TRUE(conditions.partitions[0].separates(0, 2));
    EXPECT_FALSE(conditions.partitions[0].separates(0, 1));
    ASSERT_EQ(conditions.churn.size(), 2u);
    EXPECT_TRUE(conditions.offline(1, net::seconds(15)));
    EXPECT_FALSE(conditions.offline(1, net::seconds(25)));
    EXPECT_TRUE(conditions.offline(1, net::seconds(35)));
}

TEST(ScenarioSpec, EveryCheckedInSpecLoadsAndExpands) {
    std::vector<std::filesystem::path> specs;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(BCFL_SOURCE_DIR) / "scenarios")) {
        if (entry.path().extension() == ".json") {
            specs.push_back(entry.path());
        }
    }
    std::sort(specs.begin(), specs.end());
    ASSERT_GE(specs.size(), 19u);
    for (const std::filesystem::path& path : specs) {
        SCOPED_TRACE(path.string());
        ScenarioSpec spec;
        ASSERT_NO_THROW(spec = load_scenario_file(path.string()));
        // The output file is named after the spec, so the two must agree.
        EXPECT_EQ(spec.name, path.stem().string());
        EXPECT_FALSE(expand_grid(spec).empty());
    }
}

TEST(ScenarioSpec, GridExpandsInDeclarationOrderLastAxisFastest) {
    const ScenarioSpec spec = parse_scenario(minimal_spec(
        R"(,"sweep":{"loss":[0.0,0.5],"seed":[1,2]})"));
    const auto points = expand_grid(spec);
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].label, "loss=0;seed=1");
    EXPECT_EQ(points[1].label, "loss=0;seed=2");
    EXPECT_EQ(points[2].label, "loss=0.5;seed=1");
    EXPECT_EQ(points[3].label, "loss=0.5;seed=2");
    EXPECT_EQ(points[3].config.seed, 2u);
    EXPECT_DOUBLE_EQ(points[3].config.link.loss_rate, 0.5);
}

// ------------------------------------------------------- end-to-end runs

/// A miniature task so the determinism run stays fast: 3 clients, tiny
/// synthetic datasets, the Simple NN family.
fl::FlTask tiny_task() {
    ml::SyntheticCifarConfig config;
    config.clients = 3;
    config.train_per_client = 40;
    config.test_per_client = 30;
    config.global_test = 50;
    config.dirichlet_alpha = 30.0;
    config.seed = 99;
    static const ml::FederatedData data = ml::make_synthetic_cifar(config);
    return fl::make_simple_nn_task(data, /*model_seed=*/1);
}

ScenarioSpec tiny_spec() {
    return parse_scenario(R"({
        "name":"determinism_probe",
        "rounds":2,
        "seed":13,
        "train_seconds":10,
        "wait_policy":"wait_for=2,timeout=90s",
        "max_sim_seconds":3000,
        "network":{
          "links":[{"a":0,"b":1,
                    "latency":{"dist":"uniform","lo_ms":5,"hi_ms":60}}],
          "partitions":[{"from_s":20,"until_s":40,"groups":[[0,1],[2]]}],
          "churn":[{"peer":1,"offline":[[45,60]]}]
        },
        "sweep":{"loss":[0.0,0.3]}
      })");
}

/// Table I's consider / not-consider pair on the miniature task.
ScenarioSpec tiny_vanilla_spec() {
    return parse_scenario(vanilla_spec(
        R"(,"seed":3,"sweep":{"aggregation":["consider","not_consider"]})"));
}

TEST(ScenarioRun, ByteIdenticalJsonAcrossThreadCounts) {
    const fl::FlTask task = tiny_task();
    for (const ScenarioSpec& spec : {tiny_spec(), tiny_vanilla_spec()}) {
        SCOPED_TRACE(spec.name);
        std::string serial;
        std::string parallel_wide;
        {
            parallel::ThreadCountOverride one(1);
            serial = run_scenario(spec, task).dump();
        }
        {
            parallel::ThreadCountOverride eight(8);
            parallel_wide = run_scenario(spec, task).dump();
        }
        EXPECT_EQ(serial, parallel_wide)
            << "scenario JSON diverged between BCFL_THREADS=1 and 8";
    }
}

TEST(ScenarioRun, VanillaPointsEqualRunVanillaValueForValue) {
    const fl::FlTask task = tiny_task();
    const JsonValue doc = run_scenario(tiny_vanilla_spec(), task);
    EXPECT_EQ(doc.find("mode")->as_string("mode"), "vanilla");
    const auto& points = doc.find("points")->items("points");
    ASSERT_EQ(points.size(), 2u);
    const fl::AggregationMode modes[] = {fl::AggregationMode::consider,
                                         fl::AggregationMode::not_consider};
    for (std::size_t p = 0; p < 2; ++p) {
        SCOPED_TRACE(points[p].find("label")->as_string("label"));
        fl::VanillaConfig config;
        config.rounds = 2;
        config.seed = 3;
        config.mode = modes[p];
        const fl::VanillaResult direct = fl::run_vanilla(task, config);

        const auto& clients =
            points[p].find("client_accuracy")->items("client_accuracy");
        const auto& chosen = points[p].find("chosen")->items("chosen");
        ASSERT_EQ(clients.size(), task.clients);
        ASSERT_EQ(chosen.size(), direct.rounds.size());
        for (std::size_t r = 0; r < direct.rounds.size(); ++r) {
            const fl::VanillaRound& round = direct.rounds[r];
            for (std::size_t c = 0; c < task.clients; ++c) {
                EXPECT_EQ(clients[c].items("curve")[r].as_double("acc"),
                          round.client_accuracy[c]);
            }
            std::string label;
            for (std::size_t c : round.chosen) {
                if (!label.empty()) label += ',';
                label += std::to_string(c);
            }
            EXPECT_EQ(chosen[r].as_string("chosen"), label);
        }
        double final_accuracy = 0.0;
        for (double accuracy : direct.rounds.back().client_accuracy) {
            final_accuracy += accuracy;
        }
        EXPECT_EQ(
            points[p].find("final_accuracy")->as_double("final_accuracy"),
            final_accuracy / static_cast<double>(task.clients));
    }
    // Not considering aggregates everyone, every round.
    for (const JsonValue& label : points[1].find("chosen")->items("chosen")) {
        EXPECT_EQ(label.as_string("chosen"), "0,1,2");
    }
}

TEST(ScenarioRun, DocumentCarriesPointsWithFaultMetrics) {
    const ScenarioSpec spec = tiny_spec();
    parallel::ThreadCountOverride two(2);
    const JsonValue doc = run_scenario(spec, tiny_task());
    EXPECT_EQ(doc.find("bench")->as_string("bench"),
              "scenario_determinism_probe");
    const auto& points = doc.find("points")->items("points");
    ASSERT_EQ(points.size(), 2u);
    // The partition window (and, at point 1, 30% loss) must be visible in
    // the drop accounting; every round still aggregates.
    for (const JsonValue& point : points) {
        EXPECT_GT(point.find("dropped_partition")->as_u64("p"), 0u);
        EXPECT_GT(point.find("aggregated_rounds")->as_u64("r"), 0u);
        EXPECT_GT(
            point.find("final_accuracy")->as_double("final_accuracy"),
            0.0);
        EXPECT_FALSE(
            point.find("fitness_fingerprint")->as_string("f").empty());
    }
    EXPECT_GE(points[1].find("messages_dropped")->as_u64("d"),
              points[0].find("messages_dropped")->as_u64("d"));
}

// ------------------------------------------- honest and figure4 subtrees

/// The point keys every document carried before the optional subtrees.
const std::vector<std::string> kPointKeys = {
    "label", "overrides", "wait_policy", "aggregation", "seed",
    "final_accuracy", "round_accuracy", "mean_round_s", "mean_wait_s",
    "mean_models_used", "stale_models_used", "timeout_rounds",
    "aggregated_rounds", "duration_s", "chain_height", "reorgs",
    "messages_sent", "messages_delivered", "messages_dropped",
    "dropped_partition", "dropped_offline", "bytes_sent",
    "fitness_fingerprint"};

std::vector<std::string> member_keys(const JsonValue& object) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : object.members("point")) {
        keys.push_back(key);
    }
    return keys;
}

std::vector<std::string> with_keys(std::vector<std::string> keys,
                                   std::initializer_list<const char*> extra) {
    keys.insert(keys.end(), extra.begin(), extra.end());
    return keys;
}

struct SubtreeRun {
    JsonValue point;
    DecentralizedResult result;
};

/// Runs a one-point spec through the engine, and its config directly, so
/// the document can be checked against the raw records.
SubtreeRun run_subtree_spec(const std::string& extra) {
    const ScenarioSpec spec = parse_scenario(
        R"({"name":"subtrees","rounds":2,"seed":5,"train_seconds":10,)"
        R"("max_sim_seconds":3000)" + extra + "}");
    const fl::FlTask task = tiny_task();
    const JsonValue doc = run_scenario(spec, task);
    const auto& points = doc.find("points")->items("points");
    EXPECT_EQ(points.size(), 1u);
    return {points.front(),
            run_decentralized(task, expand_grid(spec).front().config)};
}

TEST(ScenarioSubtrees, PlainSingleComboSpecKeepsTheLegacyPointKeys) {
    const SubtreeRun run = run_subtree_spec(
        R"(,"wait_policy":"wait_all,timeout=300s","aggregation":"fedavg_all")");
    EXPECT_EQ(member_keys(run.point), kPointKeys);
    // The all-peer keys still reduce every peer's last aggregated round.
    double accuracy = 0.0;
    for (const auto& records : run.result.peer_records) {
        accuracy += records.back().chosen_accuracy;
    }
    EXPECT_DOUBLE_EQ(
        run.point.find("final_accuracy")->as_double("final_accuracy"),
        accuracy / static_cast<double>(run.result.peer_records.size()));
    EXPECT_DOUBLE_EQ(run.point.find("mean_round_s")->as_double("round"),
                     run.result.mean_round_seconds);
}

TEST(ScenarioSubtrees, HonestSubtreeAppearsForPoisonersOnly) {
    const SubtreeRun run = run_subtree_spec(
        R"(,"wait_policy":"wait_all,timeout=300s","aggregation":"fedavg_all",)"
        R"("poisoned_peers":[1])");
    EXPECT_EQ(member_keys(run.point), with_keys(kPointKeys, {"honest"}));
    EXPECT_EQ(member_keys(*run.point.find("honest")),
              (std::vector<std::string>{
                  "final_accuracy", "mean_round_s", "mean_models_used",
                  "stale_models_used", "timeout_rounds", "filtered_models"}));
}

TEST(ScenarioSubtrees, HonestAndFigure4MatchAHandReductionOfTheRecords) {
    const SubtreeRun run = run_subtree_spec(
        R"(,"wait_policy":"wait_for=2,timeout=90s",)"
        R"("aggregation":"best_combination,fitness=0.12",)"
        R"("stragglers":[2],"straggler_train_seconds":40)");
    ASSERT_EQ(member_keys(run.point),
              with_keys(kPointKeys, {"honest", "figure4"}));

    // Honest peers are 0 and 1; peer 2 is the straggler.
    double final_accuracy = 0.0;
    double round_s = 0.0;
    double models = 0.0;
    std::uint64_t stale = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t filtered = 0;
    std::size_t samples = 0;
    for (std::size_t peer = 0; peer < 2; ++peer) {
        const auto& records = run.result.peer_records[peer];
        final_accuracy += records.back().chosen_accuracy;
        for (const PeerRoundRecord& record : records) {
            ASSERT_NE(record.aggregated_at, net::SimTime{0});
            round_s +=
                net::to_seconds(record.aggregated_at - record.round_started);
            models += static_cast<double>(record.models_available);
            stale += record.stale_models_used;
            filtered += record.filtered_out.size();
            if (record.timed_out) ++timeouts;
            ++samples;
        }
    }
    const JsonValue& honest = *run.point.find("honest");
    EXPECT_DOUBLE_EQ(honest.find("final_accuracy")->as_double("a"),
                     final_accuracy / 2.0);
    EXPECT_DOUBLE_EQ(honest.find("mean_round_s")->as_double("r"),
                     round_s / static_cast<double>(samples));
    EXPECT_DOUBLE_EQ(honest.find("mean_models_used")->as_double("m"),
                     models / static_cast<double>(samples));
    EXPECT_EQ(honest.find("stale_models_used")->as_u64("s"), stale);
    EXPECT_EQ(honest.find("timeout_rounds")->as_u64("t"), timeouts);
    EXPECT_EQ(honest.find("filtered_models")->as_u64("f"), filtered);
    // The straggler's slow rounds are what the honest mean leaves out.
    EXPECT_LT(honest.find("mean_round_s")->as_double("r"),
              run.point.find("mean_round_s")->as_double("r"));

    // Figure 4: per record with a combination search, did a widest row win,
    // and how far is the full row above the size-1 self row?
    std::uint64_t wins = 0;
    std::uint64_t peer_rounds = 0;
    double gap = 0.0;
    for (const auto& records : run.result.peer_records) {
        for (const PeerRoundRecord& record : records) {
            if (record.combos.size() < 2) continue;
            std::size_t widest = 0;
            for (const ComboAccuracy& row : record.combos) {
                widest = std::max(widest, row.combo.size());
            }
            double self_acc = 0.0;
            double full_acc = -1.0;
            double best = -1.0;
            std::size_t best_width = 0;
            for (const ComboAccuracy& row : record.combos) {
                if (row.combo.size() == 1) self_acc = row.accuracy;
                if (row.combo.size() == widest && full_acc < 0.0) {
                    full_acc = row.accuracy;
                }
                if (row.accuracy > best) {
                    best = row.accuracy;
                    best_width = row.combo.size();
                }
            }
            if (best_width == widest) ++wins;
            gap += full_acc - self_acc;
            ++peer_rounds;
        }
    }
    ASSERT_GT(peer_rounds, 0u);
    const JsonValue& figure4 = *run.point.find("figure4");
    EXPECT_EQ(figure4.find("full_combo_wins")->as_u64("w"), wins);
    EXPECT_EQ(figure4.find("peer_rounds")->as_u64("p"), peer_rounds);
    EXPECT_DOUBLE_EQ(
        figure4.find("mean_full_minus_self_accuracy")->as_double("g"),
        gap / static_cast<double>(peer_rounds));
}

}  // namespace
}  // namespace bcfl::core
