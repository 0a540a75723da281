// E6 — substrate microbenchmarks (auto-timed google-benchmark): an honesty
// check on the costs underlying the simulated deployment, and a performance
// regression harness for the hand-written crypto/VM/ML kernels. Also emits
// BENCH_micro_substrates.json: the serial-vs-parallel comparison of the
// aggregation hot path (BestCombination round evaluation on five
// contributors, FedAvg reduction) with a fitness fingerprint CI diffs
// across BCFL_THREADS settings.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "chain/pow.hpp"
#include "chain/types.hpp"
#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "core/policy.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "fl/fedavg.hpp"
#include "fl/task.hpp"
#include "ml/data.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/models.hpp"
#include "ml/optimizer.hpp"
#include "ml/tensor.hpp"
#include "rlp/rlp.hpp"
#include "vm/analysis.hpp"
#include "vm/evm.hpp"
#include "vm/registry_contract.hpp"

namespace {

using namespace bcfl;

void BM_Keccak256(benchmark::State& state) {
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::keccak256(data));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
// 524288 bytes: the chunk a transaction of the effnet_payload e2e
// workload carries.
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(4096)->Arg(65536)->Arg(524288);

void BM_Sha256(benchmark::State& state) {
    const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::sha256(data));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(65536)->Arg(524288);

void BM_SchnorrSign(benchmark::State& state) {
    const auto key = crypto::KeyPair::from_seed(1);
    const Bytes message = str_bytes("round 3 model update");
    for (auto _ : state) {
        benchmark::DoNotOptimize(key.sign(message));
    }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
    const auto key = crypto::KeyPair::from_seed(1);
    const Bytes message = str_bytes("round 3 model update");
    const auto sig = key.sign(message);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::verify(key.public_key(), message, sig));
    }
}
BENCHMARK(BM_SchnorrVerify);

void BM_MerkleRoot(benchmark::State& state) {
    std::vector<Hash32> leaves;
    for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
        leaves.push_back(crypto::keccak256(be_bytes(i)));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::merkle_root(leaves));
    }
}
BENCHMARK(BM_MerkleRoot)->Arg(64)->Arg(1024);

void BM_RlpTransactionRoundTrip(benchmark::State& state) {
    const auto key = crypto::KeyPair::from_seed(3);
    const auto tx = chain::Transaction::make_signed(
        key, 7, Address{}, 100'000, 2, Bytes(1024, 0x7e));
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain::Transaction::decode(tx.encode()));
    }
}
BENCHMARK(BM_RlpTransactionRoundTrip);

void BM_PowHashRate(benchmark::State& state) {
    chain::BlockHeader header;
    header.number = 1;
    header.difficulty = 0xffffffffffffffffull;  // never succeeds: pure rate
    std::uint64_t nonce = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(chain::mine_seal(header, nonce, 100));
        nonce += 100;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_PowHashRate);

void BM_RegistryPublishCall(benchmark::State& state) {
    vm::WorldState base;
    base.deploy(vm::registry_address(), vm::registry_bytecode());
    vm::Vm evm;
    const Bytes calldata = vm::registry_abi::publish_calldata(
        1, crypto::keccak256(str_bytes("m")), 4, 1024);
    for (auto _ : state) {
        vm::WorldState state_copy = base;
        vm::CallContext ctx;
        ctx.contract = vm::registry_address();
        ctx.caller = crypto::KeyPair::from_seed(1).address();
        ctx.calldata = calldata;
        ctx.gas_limit = 10'000'000;
        benchmark::DoNotOptimize(evm.call(state_copy, ctx));
    }
}
BENCHMARK(BM_RegistryPublishCall);

void BM_VmChunkStore64K(benchmark::State& state) {
    vm::WorldState base;
    base.deploy(vm::registry_address(), vm::registry_bytecode());
    vm::Vm evm;
    const Bytes calldata =
        vm::registry_abi::chunk_calldata(1, 0, Bytes(64 * 1024, 0x42));
    for (auto _ : state) {
        vm::WorldState state_copy = base;
        vm::CallContext ctx;
        ctx.contract = vm::registry_address();
        ctx.caller = crypto::KeyPair::from_seed(1).address();
        ctx.calldata = calldata;
        ctx.gas_limit = 100'000'000;
        benchmark::DoNotOptimize(evm.call(state_copy, ctx));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64 *
                            1024);
}
BENCHMARK(BM_VmChunkStore64K);

// ---------------------------------------------------------------------------
// Static analyzer: analysis throughput, cache effectiveness and the
// call-time win from the cached jumpdest bitmap. Also emits
// BENCH_vm_analysis.json whose `parity` subtree (verdicts over a fixed
// program set, the registry contract's block/jumpdest counts, env mask and
// block-table keccak, and the analysis-cache hit counts after a fixed call
// sequence) is exact-gated by scripts/bench_compare.py: any drift means the
// analyzer's seeded behaviour changed.

void BM_VmAnalysis(benchmark::State& state) {
    for (auto _ : state) {
        // Synthetic ~64 KiB program: repeated straight-line blocks
        // (JUMPDEST PUSH1 1 PUSH1 2 ADD POP), terminated by STOP. Every
        // block falls through to the next, so the whole program is
        // reachable and analyzes valid.
        Bytes synthetic;
        const std::size_t kTargetBytes = 64 * 1024;
        const std::uint8_t unit[] = {0x5b, 0x60, 0x01, 0x60, 0x02, 0x01, 0x50};
        while (synthetic.size() + sizeof(unit) < kTargetBytes) {
            synthetic.insert(synthetic.end(), std::begin(unit),
                             std::end(unit));
        }
        synthetic.push_back(0x00);  // STOP

        const vm::CodeAnalysis synthetic_analysis = vm::analyze(synthetic);
        const double analyze_ms = bench::best_wall_ms(
            5, [&] { benchmark::DoNotOptimize(vm::analyze(synthetic)); });
        const double kib = static_cast<double>(synthetic.size()) / 1024.0;

        // Cache effectiveness: one Vm, sixteen registry calls. The first
        // call misses and analyzes; every later call must hit — the
        // "no per-call bitmap rebuild" contract, pinned by the parity gate.
        vm::WorldState base;
        base.deploy(vm::registry_address(), vm::registry_bytecode());
        const Bytes calldata = vm::registry_abi::publish_calldata(
            1, crypto::keccak256(str_bytes("m")), 4, 1024);
        const auto registry_call = [&](const vm::Vm& evm) {
            vm::WorldState state_copy = base;
            vm::CallContext ctx;
            ctx.contract = vm::registry_address();
            ctx.caller = crypto::KeyPair::from_seed(1).address();
            ctx.calldata = calldata;
            ctx.gas_limit = 10'000'000;
            benchmark::DoNotOptimize(evm.call(state_copy, ctx));
        };
        const std::size_t kCalls = 16;
        vm::Vm counted_vm;
        for (std::size_t i = 0; i < kCalls; ++i) registry_call(counted_vm);
        const vm::AnalysisCache::Stats stats =
            counted_vm.analysis_cache().stats();
        const double hit_rate =
            static_cast<double>(stats.hits) /
            static_cast<double>(stats.hits + stats.misses);

        // Call-time speedup: cold constructs a fresh Vm (empty cache, so
        // the call pays for the analysis) vs warm reusing a primed one.
        const double call_cold_ms = bench::best_wall_ms(5, [&] {
            const vm::Vm cold_vm;
            registry_call(cold_vm);
        });
        vm::Vm warm_vm;
        registry_call(warm_vm);  // prime
        const double call_warm_ms =
            bench::best_wall_ms(5, [&] { registry_call(warm_vm); });

        // Fixed program set for the verdict parity table: the registry
        // plus one sample per fatal-diagnostic class and the two benign
        // boundary cases the analyzer must keep accepting.
        struct Sample {
            const char* name;
            Bytes code;
        };
        const Sample samples[] = {
            {"registry", vm::registry_bytecode()},
            {"underflow_add", Bytes{0x01}},
            {"truncated_push2", Bytes{0x61}},
            {"zero_padded_push2", Bytes{0x61, 0xaa}},
            {"jump_into_push_data", Bytes{0x60, 0x04, 0x56, 0x60, 0x5b, 0x00}},
            {"dynamic_jump", Bytes{0x58, 0x56}},
            {"growth_loop", Bytes{0x5b, 0x36, 0x61, 0x00, 0x00, 0x56}},
            {"invalid_opcode", Bytes{0x60, 0x01, 0xfe}},
            {"dead_jumpdest", Bytes{0x00, 0x5b, 0x00}},
        };

        const vm::CodeAnalysis registry =
            vm::analyze(vm::registry_bytecode());
        const Hash32 table_hash =
            crypto::keccak256(vm::block_table_dump(registry));
        std::size_t registry_reachable = 0;
        for (const vm::BasicBlock& block : registry.blocks) {
            if (block.reachable) ++registry_reachable;
        }
        std::size_t registry_jumpdests = 0;
        for (const bool is_dest : registry.jumpdest) {
            if (is_dest) ++registry_jumpdests;
        }

        bench::print_title("E6+ — static analyzer: throughput, cache, gate");
        std::printf("analyze 64KiB straight-line: %8.3f ms  (%.3f ms/KiB)\n",
                    analyze_ms, analyze_ms / kib);
        std::printf(
            "cache after %zu registry calls: %llu hits / %llu misses "
            "(hit rate %.3f)\n",
            kCalls, static_cast<unsigned long long>(stats.hits),
            static_cast<unsigned long long>(stats.misses), hit_rate);
        std::printf(
            "registry call cold vs warm cache: %8.3f ms -> %8.3f ms "
            "(speedup %.2fx)\n",
            call_cold_ms, call_warm_ms, call_cold_ms / call_warm_ms);
        std::printf("registry block table keccak: %s\n",
                    table_hash.hex().c_str());

        bench::Json json = bench::Json::object();
        json.set("bench", "vm_analysis");
        json.set("synthetic_code_bytes",
                 static_cast<std::uint64_t>(synthetic.size()));
        json.set("synthetic_valid", synthetic_analysis.valid());
        json.set("synthetic_blocks", static_cast<std::uint64_t>(
                                         synthetic_analysis.blocks.size()));
        json.set("analysis_ms", analyze_ms);
        json.set("analysis_ms_per_kib", analyze_ms / kib);
        json.set("registry_call_cold_ms", call_cold_ms);
        json.set("registry_call_warm_ms", call_warm_ms);
        json.set("cached_bitmap_speedup", call_cold_ms / call_warm_ms);
        json.set("cache_hit_rate", hit_rate);

        bench::Json parity = bench::Json::object();
        parity.set("registry_calls", static_cast<std::uint64_t>(kCalls));
        parity.set("cache_hits", stats.hits);
        parity.set("cache_misses", stats.misses);
        parity.set("cache_evictions", stats.evictions);
        parity.set("registry_blocks",
                   static_cast<std::uint64_t>(registry.blocks.size()));
        parity.set("registry_reachable_blocks",
                   static_cast<std::uint64_t>(registry_reachable));
        parity.set("registry_unreachable_bytes",
                   static_cast<std::uint64_t>(registry.unreachable_bytes));
        parity.set("registry_jumpdests",
                   static_cast<std::uint64_t>(registry_jumpdests));
        parity.set("registry_env_mask",
                   static_cast<std::uint64_t>(registry.env_mask));
        parity.set("registry_block_table_keccak", table_hash.hex());
        std::uint64_t valid_count = 0;
        bench::Json verdicts = bench::Json::array();
        for (const Sample& sample : samples) {
            const vm::CodeAnalysis analysis = vm::analyze(sample.code);
            if (analysis.valid()) ++valid_count;
            const vm::Diagnostic* fatal = analysis.first_fatal();
            bench::Json row = bench::Json::object();
            row.set("program", sample.name);
            row.set("verdict", analysis.valid() ? "valid" : "invalid");
            row.set("diagnostic", fatal != nullptr ? fatal->name : "");
            verdicts.push(std::move(row));
        }
        parity.set("valid_programs", valid_count);
        parity.set("invalid_programs",
                   static_cast<std::uint64_t>(std::size(samples)) -
                       valid_count);
        parity.set("verdicts", std::move(verdicts));
        json.set("parity", std::move(parity));
        bench::write_bench_json("vm_analysis", json);
    }
}
BENCHMARK(BM_VmAnalysis)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Seeded normal values. Inputs are never all zero: the matmul kernels skip
/// zero A elements, so a zero input would time a no-op.
std::vector<float> random_values(std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> values(count);
    for (float& v : values) v = static_cast<float>(rng.normal());
    return values;
}

/// A batch of the synthetic-CIFAR shape {n, 3, 12, 12}.
ml::Tensor random_batch(std::size_t n, std::uint64_t seed) {
    return ml::Tensor({n, 3, 12, 12}, random_values(n * 3 * 12 * 12, seed));
}

/// Times `matmul` on random operands at the shape {m, k, n} in the
/// benchmark's arguments (A holds m * k values in either layout).
void run_matmul(benchmark::State& state,
                void (*matmul)(const float*, const float*, float*,
                               std::size_t, std::size_t, std::size_t, bool)) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    const std::vector<float> a = random_values(m * k, 1);
    const std::vector<float> b = random_values(k * n, 2);
    std::vector<float> out(m * n);
    for (auto _ : state) {
        matmul(a.data(), b.data(), out.data(), m, k, n, false);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 2 * m *
                                                 k * n));
}

/// SimpleNN's first Dense forward: a batch of 32 (training) or 256
/// (evaluation) times the {432, 96} weights.
void BM_MatmulNN(benchmark::State& state) { run_matmul(state, ml::matmul_nn); }
BENCHMARK(BM_MatmulNN)->Args({32, 432, 96})->Args({256, 432, 96});

/// The same layer's weight gradient X^T * dY: out {432, 96} from the
/// batch-32 input X (stored {32, 432}) and dY {32, 96}.
void BM_MatmulTN(benchmark::State& state) { run_matmul(state, ml::matmul_tn); }
BENCHMARK(BM_MatmulTN)->Args({432, 32, 96});

void BM_SimpleNnForwardBatch32(benchmark::State& state) {
    ml::Sequential model = ml::make_simple_nn(ml::InputDims{}, 1);
    const ml::Tensor batch = random_batch(32, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.forward(batch, false));
    }
}
BENCHMARK(BM_SimpleNnForwardBatch32);

/// One SGD step of local training: forward, loss, backward, update.
void BM_SimpleNnTrainStepBatch32(benchmark::State& state) {
    ml::Sequential model = ml::make_simple_nn(ml::InputDims{}, 1);
    const ml::Tensor batch = random_batch(32, 6);
    std::vector<int> labels(32);
    Rng rng(7);
    for (int& label : labels) label = static_cast<int>(rng.next_below(10));
    ml::Sgd sgd;
    const auto params = model.parameters();
    const auto grads = model.gradients();
    for (auto _ : state) {
        const ml::Tensor logits = model.forward(batch, true);
        const ml::LossResult loss = ml::softmax_cross_entropy(logits, labels);
        model.backward(loss.grad_logits);
        sgd.step(params, grads);
        benchmark::DoNotOptimize(loss.loss);
    }
}
BENCHMARK(BM_SimpleNnTrainStepBatch32);

void BM_EffnetBackboneBatch32(benchmark::State& state) {
    ml::EffNetLite model = ml::make_effnet_lite(ml::InputDims{}, 1);
    ml::Tensor batch({32, 3, 12, 12});
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.backbone.forward(batch, false));
    }
}
BENCHMARK(BM_EffnetBackboneBatch32);

void BM_FedAvgThreeClients(benchmark::State& state) {
    std::vector<fl::ModelUpdate> updates(3);
    for (auto& u : updates) {
        u.weights.assign(42'538, 0.25f);
        u.sample_count = 600;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(fl::fedavg(updates));
    }
}
BENCHMARK(BM_FedAvgThreeClients);

// ---------------------------------------------------------------------------
// Serial vs parallel: the aggregation hot path. Times one full
// BestCombination round evaluation (n = 5 contributors -> 7 paper
// combinations, each a FedAvg + a real model evaluation) and a paper-scale
// FedAvg reduction, first pinned to one engine thread and then at the
// ambient thread count (BCFL_THREADS or hardware). The fitness numbers must
// be bit-identical between the two runs — that is the engine's contract —
// and the fingerprint lands in BENCH_micro_substrates.json so CI can diff
// it across BCFL_THREADS settings.

std::string fitness_fingerprint(const core::AggregationResult& result) {
    std::string out;
    for (const core::ComboAccuracy& row : result.combos) {
        out += row.label;
        out.push_back('=');
        bench::append_fingerprint(out, row.accuracy);
    }
    return out;
}

void BM_AggregationSerialVsParallel(benchmark::State& state) {
    namespace parallel = core::parallel;

    // Five contributors on the synthetic CIFAR stand-in: real models, real
    // evaluation on a real test split — the n=5 case the engine targets.
    ml::SyntheticCifarConfig data_config;
    data_config.clients = 5;
    data_config.train_per_client = 200;
    data_config.test_per_client = 400;
    data_config.global_test = 400;
    data_config.seed = 2024;
    const ml::FederatedData data = ml::make_synthetic_cifar(data_config);
    const fl::FlTask task = fl::make_simple_nn_task(data, 1);

    // Distinct updates: the shared initial weights plus per-contributor
    // deterministic noise (evaluation cost does not depend on quality).
    std::unique_ptr<fl::FlModel> seed_model = task.make_model();
    const std::vector<float> base = seed_model->weights();
    std::vector<fl::ModelUpdate> updates(5);
    for (std::size_t u = 0; u < updates.size(); ++u) {
        Rng rng(parallel::task_seed(7, u));
        updates[u].weights = base;
        for (float& w : updates[u].weights) w += rng.uniform(-0.05f, 0.05f);
        updates[u].sample_count = 200.0;
    }
    const std::vector<std::size_t> roster{0, 1, 2, 3, 4};

    std::unique_ptr<fl::FlModel> probe = task.make_model();
    core::AggregationInput input;
    input.updates = updates;
    input.roster_indices = roster;
    input.self_pos = 0;
    input.roster_size = 5;
    input.round = 1;
    input.names = "ABCDE";
    input.evaluate = [&](std::span<const float> candidate) {
        probe->set_weights(candidate);
        return probe->evaluate(task.client_test[0]);
    };
    input.make_evaluator =
        [&task]() -> std::function<double(std::span<const float>)> {
        std::shared_ptr<fl::FlModel> worker_probe = task.make_model();
        return [&task, worker_probe](std::span<const float> candidate) {
            worker_probe->set_weights(candidate);
            return worker_probe->evaluate(task.client_test[0]);
        };
    };

    core::BestCombination strategy;
    const std::size_t threads_parallel = parallel::thread_count();

    for (auto _ : state) {
        core::AggregationResult serial_result;
        core::AggregationResult parallel_result;
        double serial_ms = 0.0;
        double parallel_ms = 0.0;
        {
            const parallel::ThreadCountOverride pin(1);
            serial_ms = bench::best_wall_ms(
                3, [&] { serial_result = strategy.aggregate(input); });
        }
        parallel_ms = bench::best_wall_ms(
            3, [&] { parallel_result = strategy.aggregate(input); });

        const std::string serial_fp = fitness_fingerprint(serial_result);
        const std::string parallel_fp = fitness_fingerprint(parallel_result);

        // FedAvg reduction at paper scale (EffNet-ish dimension).
        std::vector<fl::ModelUpdate> big(5);
        for (std::size_t u = 0; u < big.size(); ++u) {
            Rng rng(parallel::task_seed(11, u));
            big[u].weights.resize(1'000'000);
            for (float& w : big[u].weights) w = rng.uniform(-1.0f, 1.0f);
            big[u].sample_count = 600.0;
        }
        std::vector<float> fedavg_serial;
        std::vector<float> fedavg_parallel;
        double fedavg_serial_ms = 0.0;
        double fedavg_parallel_ms = 0.0;
        {
            const parallel::ThreadCountOverride pin(1);
            fedavg_serial_ms =
                bench::best_wall_ms(3, [&] { fedavg_serial = fl::fedavg(big); });
        }
        fedavg_parallel_ms =
            bench::best_wall_ms(3, [&] { fedavg_parallel = fl::fedavg(big); });

        bench::print_title(
            "E6+ — aggregation hot path, serial vs parallel engine");
        std::printf("threads: serial=1 parallel=%zu (hardware %u)\n",
                    threads_parallel, std::thread::hardware_concurrency());
        std::printf(
            "BestCombination n=5 (7 combos): %8.2f ms -> %8.2f ms  "
            "(speedup %.2fx, fitness %s)\n",
            serial_ms, parallel_ms, serial_ms / parallel_ms,
            serial_fp == parallel_fp ? "identical" : "DIVERGED");
        std::printf(
            "FedAvg 5x1M floats:            %8.2f ms -> %8.2f ms  "
            "(speedup %.2fx, result %s)\n",
            fedavg_serial_ms, fedavg_parallel_ms,
            fedavg_serial_ms / fedavg_parallel_ms,
            fedavg_serial == fedavg_parallel ? "identical" : "DIVERGED");

        bench::Json json = bench::Json::object();
        json.set("bench", "micro_substrates");
        json.set("hardware_concurrency",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));
        // The variant cpuid picked for each dispatched kernel, so timings
        // can be read against the code that ran. Informational: no gate
        // reads it.
        bench::Json dispatch = bench::Json::object();
        dispatch.set("sha256", crypto::sha256_kernel_name());
        dispatch.set("keccak", crypto::keccak_kernel_name());
        dispatch.set("gemm", ml::gemm_kernel_name());
        json.set("dispatch", std::move(dispatch));
        json.set("threads_serial", std::uint64_t{1});
        json.set("threads_parallel",
                 static_cast<std::uint64_t>(threads_parallel));
        json.set("contributors", std::uint64_t{5});
        json.set("combos",
                 static_cast<std::uint64_t>(serial_result.combos.size()));
        json.set("best_combination_serial_ms", serial_ms);
        json.set("best_combination_parallel_ms", parallel_ms);
        json.set("serial_vs_parallel_speedup", serial_ms / parallel_ms);
        json.set("fitness_identical", serial_fp == parallel_fp);
        json.set("fitness_fingerprint", parallel_fp);
        json.set("fedavg_dim", std::uint64_t{1'000'000});
        json.set("fedavg_serial_ms", fedavg_serial_ms);
        json.set("fedavg_parallel_ms", fedavg_parallel_ms);
        json.set("fedavg_serial_vs_parallel_speedup",
                 fedavg_serial_ms / fedavg_parallel_ms);
        json.set("fedavg_identical", fedavg_serial == fedavg_parallel);
        bench::Json points = bench::Json::array();
        for (const core::ComboAccuracy& row : serial_result.combos) {
            bench::Json point = bench::Json::object();
            point.set("label", row.label);
            point.set("accuracy", row.accuracy);
            points.push(std::move(point));
        }
        json.set("points", std::move(points));
        bench::write_bench_json("micro_substrates", json);
    }
}
BENCHMARK(BM_AggregationSerialVsParallel)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
