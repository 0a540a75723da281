// Hierarchical-topology suite: cluster resolution, the tier round
// encoding, consensus under wait_all, and the determinism pins the round
// loop's scale-out rests on — byte-identical BENCH JSON at any
// BCFL_THREADS, and invariance to the order clusters are listed in a spec.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/model_store.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "core/topology.hpp"
#include "fl/task.hpp"
#include "ml/data.hpp"

namespace bcfl::core {
namespace {

// ------------------------------------------------------ resolve_topology

TEST(ResolveTopology, AutoPartitionsContiguousClusters) {
    TopologyConfig config;
    config.cluster_size = 3;
    const ResolvedTopology topo = resolve_topology(config, 7);
    ASSERT_EQ(topo.clusters.size(), 3u);
    EXPECT_EQ(topo.clusters[0], (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(topo.clusters[1], (std::vector<std::size_t>{3, 4, 5}));
    EXPECT_EQ(topo.clusters[2], (std::vector<std::size_t>{6}));
    EXPECT_EQ(topo.heads, (std::vector<std::size_t>{0, 3, 6}));
    EXPECT_EQ(topo.top_head, 0u);
    EXPECT_EQ(topo.max_cluster_size(), 3u);
    EXPECT_EQ(topo.cluster_of[4], 1u);
    EXPECT_EQ(topo.cluster_of[6], 2u);
}

TEST(ResolveTopology, NormalizesExplicitClustersByHead) {
    TopologyConfig config;
    // Listed out of order, members unsorted; heads default to the smallest
    // member, and clusters are ordered by head index.
    config.clusters = {{5, 3, 4}, {2, 0, 1}};
    const ResolvedTopology topo = resolve_topology(config, 6);
    ASSERT_EQ(topo.clusters.size(), 2u);
    EXPECT_EQ(topo.clusters[0], (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(topo.clusters[1], (std::vector<std::size_t>{3, 4, 5}));
    EXPECT_EQ(topo.heads, (std::vector<std::size_t>{0, 3}));
    EXPECT_EQ(topo.top_head, 0u);
}

TEST(ResolveTopology, HonorsExplicitHeads) {
    TopologyConfig config;
    config.clusters = {{0, 1, 2}, {3, 4, 5}};
    config.heads = {2, 4};
    const ResolvedTopology topo = resolve_topology(config, 6);
    EXPECT_EQ(topo.heads, (std::vector<std::size_t>{2, 4}));
    EXPECT_EQ(topo.top_head, 2u);
}

TEST(ResolveTopology, RejectsBrokenPartitions) {
    const auto resolve = [](TopologyConfig config, std::size_t peers) {
        return resolve_topology(config, peers);
    };
    TopologyConfig disabled;
    EXPECT_THROW((void)resolve(disabled, 4), Error);

    TopologyConfig conflict;
    conflict.cluster_size = 2;
    conflict.clusters = {{0, 1}};
    EXPECT_THROW((void)resolve(conflict, 4), Error);

    TopologyConfig oversized;
    oversized.cluster_size = 8;
    EXPECT_THROW((void)resolve(oversized, 4), Error);

    TopologyConfig empty_cluster;
    empty_cluster.clusters = {{0, 1}, {}};
    EXPECT_THROW((void)resolve(empty_cluster, 4), Error);

    TopologyConfig duplicated;
    duplicated.clusters = {{0, 1}, {1, 2, 3}};
    EXPECT_THROW((void)resolve(duplicated, 4), Error);

    TopologyConfig uncovered;  // peer 3 in no cluster
    uncovered.clusters = {{0, 1}, {2}};
    EXPECT_THROW((void)resolve(uncovered, 4), Error);

    TopologyConfig outside;  // peer 4 outside the roster
    outside.clusters = {{0, 1}, {2, 3, 4}};
    EXPECT_THROW((void)resolve(outside, 4), Error);

    TopologyConfig foreign_head;  // head 0 is not a member of its cluster
    foreign_head.clusters = {{0, 1}, {2, 3}};
    foreign_head.heads = {1, 0};
    EXPECT_THROW((void)resolve(foreign_head, 4), Error);

    TopologyConfig misaligned;  // one head for two clusters
    misaligned.clusters = {{0, 1}, {2, 3}};
    misaligned.heads = {0};
    EXPECT_THROW((void)resolve(misaligned, 4), Error);
}

// ----------------------------------------------------------- tier rounds

TEST(TierRound, MemberTierKeepsPlainRoundNumbers) {
    // The flat deployment's registry keys must be unchanged by the tier
    // encoding: member == plain round.
    for (std::uint64_t round : {1ull, 7ull, 1000ull}) {
        EXPECT_EQ(tier_round(ModelKind::member, round), round);
        EXPECT_EQ(tier_of(round), ModelKind::member);
    }
    const std::uint64_t cluster = tier_round(ModelKind::cluster, 5);
    const std::uint64_t global = tier_round(ModelKind::global, 5);
    EXPECT_NE(cluster, 5u);
    EXPECT_NE(global, cluster);
    EXPECT_EQ(tier_of(cluster), ModelKind::cluster);
    EXPECT_EQ(tier_of(global), ModelKind::global);
}

// ------------------------------------------------------------- end-to-end

/// Six tiny clients so the hierarchical runs stay fast: 8x8 images, an
/// 8-wide hidden layer.
fl::FlTask tiny_task() {
    ml::SyntheticCifarConfig config;
    config.clients = 6;
    config.train_per_client = 30;
    config.test_per_client = 20;
    config.global_test = 40;
    config.height = 8;
    config.width = 8;
    config.dirichlet_alpha = 30.0;
    config.seed = 99;
    static const ml::FederatedData data = ml::make_synthetic_cifar(config);
    return fl::make_simple_nn_task(data, /*model_seed=*/1, /*hidden=*/8);
}

std::string hier_spec_text(const std::string& clusters) {
    return std::string(R"({
        "name":"hierarchy_probe",
        "peers":6,
        "rounds":2,
        "seed":13,
        "train_seconds":10,
        "aggregation":"fedavg_all",
        "max_sim_seconds":3000,
        "topology":{"clusters":)") +
           clusters + R"(}
      })";
}

/// Two clusters of three: heads 0 and 3, top head 0.
DecentralizedConfig two_cluster_config() {
    DecentralizedConfig config;
    config.peers = 6;
    config.rounds = 2;
    config.aggregation = "fedavg_all";
    config.train_duration = net::seconds(10);
    config.seed = 13;
    config.topology.cluster_size = 3;
    return config;
}

TEST(HierarchyRun, AllPeersAdoptIdenticalGlobalModelUnderWaitAll) {
    const DecentralizedResult result =
        run_decentralized(tiny_task(), two_cluster_config());
    ASSERT_EQ(result.final_model_digests.size(), 6u);
    for (std::size_t p = 1; p < result.final_model_digests.size(); ++p) {
        EXPECT_EQ(result.final_model_digests[p],
                  result.final_model_digests[0])
            << "peer " << p << " diverged from the global model";
    }
    for (const auto& records : result.peer_records) {
        ASSERT_EQ(records.size(), 2u);
        for (const PeerRoundRecord& record : records) {
            EXPECT_EQ(record.chosen_label, "global");
            EXPECT_FALSE(record.timed_out);
        }
    }
}

TEST(HierarchyRun, SilentTopHeadSendsTheOthersToTheirFallbacks) {
    // The top head trains for 600 s, so no global model appears within
    // member_timeout: members fall back to their own update, the other
    // head to its cluster model, and only the top head records the global
    // model it publishes late.
    DecentralizedConfig config = two_cluster_config();
    config.stragglers = {0};
    config.straggler_train_duration = net::seconds(600);
    config.topology.member_timeout = net::seconds(120);
    const DecentralizedResult result = run_decentralized(tiny_task(), config);
    ASSERT_EQ(result.peer_records.size(), 6u);
    for (std::size_t p = 0; p < 6; ++p) {
        const auto& records = result.peer_records[p];
        ASSERT_EQ(records.size(), 2u) << "peer " << p;
        for (const PeerRoundRecord& record : records) {
            if (p == 0) {
                EXPECT_EQ(record.chosen_label, "global");
            } else if (p == 3) {
                EXPECT_EQ(record.chosen_label, "cluster");
                EXPECT_TRUE(record.timed_out);
            } else {
                EXPECT_EQ(record.chosen_label, "self") << "peer " << p;
                EXPECT_TRUE(record.timed_out) << "peer " << p;
            }
        }
    }
}

TEST(HierarchyRun, HeadDeadlineAggregatesAPartialCluster) {
    // Member 4 trains for 600 s; head 3's 60 s deadline closes its cluster
    // stage on its own and member 5's models. The round still ends in the
    // global model everywhere, the straggler included: it adopts the
    // global model already on chain when it finishes training.
    DecentralizedConfig config = two_cluster_config();
    config.stragglers = {4};
    config.straggler_train_duration = net::seconds(600);
    config.topology.head_policy = "deadline=60s";
    const DecentralizedResult result = run_decentralized(tiny_task(), config);
    ASSERT_EQ(result.peer_records.size(), 6u);
    for (std::size_t p = 0; p < 6; ++p) {
        ASSERT_EQ(result.peer_records[p].size(), 2u) << "peer " << p;
        for (const PeerRoundRecord& record : result.peer_records[p]) {
            EXPECT_EQ(record.chosen_label, "global") << "peer " << p;
            if (p == 3) {
                EXPECT_TRUE(record.timed_out);
                EXPECT_EQ(record.models_available, 2u);
            }
        }
    }
}

TEST(HierarchyRun, BenchJsonByteIdenticalAcrossThreadCounts) {
    const ScenarioSpec spec =
        parse_scenario(hier_spec_text("[[0,1,2],[3,4,5]]"));
    const fl::FlTask task = tiny_task();
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
        << "hierarchical scenario JSON diverged between BCFL_THREADS=1 "
           "and 8";
}

TEST(HierarchyRun, ClusterListingOrderDoesNotChangeResults) {
    // The same partition written in two different orders (clusters
    // permuted, members unsorted) must normalize to the same deployment
    // and therefore the same document — no RNG draw may depend on spec
    // iteration order.
    const ScenarioSpec forward =
        parse_scenario(hier_spec_text("[[0,1,2],[3,4,5]]"));
    const ScenarioSpec permuted =
        parse_scenario(hier_spec_text("[[4,3,5],[2,0,1]]"));
    const fl::FlTask task = tiny_task();
    parallel::ThreadCountOverride two(2);
    EXPECT_EQ(run_scenario(forward, task).dump(),
              run_scenario(permuted, task).dump());
}

TEST(HierarchyRun, ClusterSizeSweepMixesFlatAndHierarchicalPoints) {
    const ScenarioSpec spec = parse_scenario(R"({
        "name":"hierarchy_sweep_probe",
        "peers":6,
        "rounds":1,
        "seed":13,
        "train_seconds":10,
        "aggregation":"fedavg_all",
        "max_sim_seconds":3000,
        "sweep":{"cluster_size":[0,3]}
      })");
    parallel::ThreadCountOverride two(2);
    const JsonValue doc = run_scenario(spec, tiny_task());
    const auto& points = doc.find("points")->items("points");
    ASSERT_EQ(points.size(), 2u);
    // Flat point: pre-topology schema, no "topology" member.
    EXPECT_EQ(points[0].find("topology"), nullptr);
    const JsonValue* topo = points[1].find("topology");
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->find("clusters")->as_u64("clusters"), 2u);
    EXPECT_EQ(topo->find("max_cluster_size")->as_u64("m"), 3u);
    for (const JsonValue& point : points) {
        EXPECT_GT(point.find("aggregated_rounds")->as_u64("r"), 0u);
        EXPECT_GT(point.find("final_accuracy")->as_double("a"), 0.0);
    }
}

}  // namespace
}  // namespace bcfl::core
