#include "core/peer.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "fl/fedavg.hpp"
#include "ml/serialize.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::core {

namespace abi = vm::registry_abi;

BcflPeer::BcflPeer(node::Node& node, const fl::FlTask& task,
                   std::vector<Address> roster, PeerConfig config)
    : transport_(node.transport()),
      node_(node),
      task_(task),
      roster_(std::move(roster)),
      config_(std::move(config)),
      model_(task.make_model()),
      probe_(task.make_model()),
      global_weights_(model_->weights()) {
    if (config_.index >= roster_.size()) {
        throw Error("peer: index outside roster");
    }
    if (roster_[config_.index] != node_.address()) {
        throw Error("peer: node key does not match roster entry");
    }
    // FedAvg weights a member-tier source by its training-set size.
    const auto member_stage = [this](std::vector<std::size_t> sources,
                                     const std::string& policy,
                                     const std::string& aggregation) {
        std::vector<double> weights;
        for (std::size_t c : sources) {
            weights.push_back(
                static_cast<double>(task_.client_train[c].size()));
        }
        return Stage{.kind = ModelKind::member,
                     .sources = std::move(sources),
                     .weights = std::move(weights),
                     .policy = make_wait_policy(policy),
                     .aggregation = make_aggregation_strategy(aggregation)};
    };
    if (config_.resolved == nullptr) {
        std::vector<std::size_t> everyone(roster_.size());
        std::iota(everyone.begin(), everyone.end(), std::size_t{0});
        Stage flat = member_stage(std::move(everyone), config_.wait_policy,
                                  config_.aggregation);
        flat.backfill_stale = flat.aggregation->wants_stale_updates();
        stages_.push_back(std::move(flat));
    } else {
        const ResolvedTopology& topo = *config_.resolved;
        if (topo.cluster_of.size() != roster_.size()) {
            throw Error("peer: topology does not cover the roster");
        }
        const std::size_t own = topo.cluster_of[config_.index];
        if (topo.heads[own] == config_.index) {
            stages_.push_back(member_stage(topo.clusters[own],
                                           config_.topology.head_policy,
                                           config_.topology.head_aggregation));
        }
        if (topo.top_head == config_.index) {
            // One update per cluster, weighted by the cluster's total
            // training-set size. The weight is static (configured data
            // sizes, not per-round arrivals) — exact under wait_all at
            // tier 1 and a documented simplification when a head
            // aggregated a partial cluster.
            std::vector<double> weights;
            for (const std::vector<std::size_t>& cluster : topo.clusters) {
                double samples = 0.0;
                for (std::size_t m : cluster) {
                    samples +=
                        static_cast<double>(task_.client_train[m].size());
                }
                weights.push_back(samples);
            }
            stages_.push_back(
                {.kind = ModelKind::cluster,
                 .sources = topo.heads,
                 .weights = std::move(weights),
                 .policy = make_wait_policy(config_.topology.top_policy),
                 .aggregation = make_aggregation_strategy(
                     config_.topology.top_aggregation)});
        }
        install_store_filter();
    }
    // React to chain progress: every new head may complete a model.
    node_.on_new_head([this](const chain::Block&) {
        if (waiting_) poll_wait_policy();
    });
}

void BcflPeer::install_store_filter() {
    // Ingest-side admission control: a hierarchical peer only ever reads
    // its stages' (tier, source) models and, unless it publishes it, the
    // round's global model, so everything else is dropped before it is
    // buffered — per-peer model memory is O(tier fan-in), not O(roster).
    // The set is tiny; a linear scan beats hashing.
    std::vector<std::pair<ModelKind, Address>> wanted;
    for (const Stage& stage : stages_) {
        for (std::size_t c : stage.sources) {
            wanted.emplace_back(stage.kind, roster_[c]);
        }
    }
    const std::size_t top = config_.resolved->top_head;
    if (top != config_.index) {
        wanted.emplace_back(ModelKind::global, roster_[top]);
    }
    store_.set_filter([wanted = std::move(wanted)](std::uint64_t round,
                                                   const Address& owner) {
        return std::find(wanted.begin(), wanted.end(),
                         std::pair{tier_of(round), owner}) != wanted.end();
    });
}

void BcflPeer::run_rounds(std::size_t rounds) {
    target_rounds_ = rounds;
    current_round_ = 0;
    if (config_.start_delay > 0) {
        transport_.schedule_after(node_.id(), config_.start_delay,
                                  [this] { begin_round(); });
    } else {
        begin_round();
    }
}

void BcflPeer::begin_round() {
    if (finished()) return;
    ++current_round_;
    PeerRoundRecord record;
    record.round = current_round_;
    record.round_started = transport_.now();
    records_.push_back(record);

    // Training occupies the CPU for train_duration; mining slows down
    // (the dual-duty contention the paper observed on real hardware).
    node_.set_compute_load(config_.train_cpu_load);
    transport_.schedule_after(node_.id(), config_.train_duration,
                              [this] { finish_training(); });
}

void BcflPeer::finish_training() {
    node_.set_compute_load(0.0);

    // Actual local training (real compute, simulated duration elapsed).
    model_->set_weights(global_weights_);
    ml::TrainConfig train_config = task_.train_template;
    train_config.shuffle_seed =
        0x9e3779b9u * current_round_ + 7919 * config_.index;
    model_->train_local(task_.client_train[config_.index], train_config);
    own_update_ = model_->weights();

    // A member-tier registry round equals the plain round number, so flat
    // deployments publish exactly the bytes they always did.
    const std::uint64_t member_round =
        tier_round(ModelKind::member, current_round_);
    if (config_.poison_updates) {
        // Publish a corrupted update (fault injection for the poisoning
        // experiments): flip signs and inflate magnitudes so the model is
        // confidently wrong rather than merely random.
        std::vector<float> poisoned = own_update_;
        for (float& w : poisoned) w = -2.0f * w;
        publish_weights(member_round, poisoned);
    } else {
        publish_weights(member_round, own_update_);
    }
    records_.back().published_at = transport_.now();

    // Hand control to the first stage's WaitPolicy: it decides, from the
    // evolving chain view, when that stage aggregates. A member has no
    // stage and goes straight to waiting for the global model.
    enter_stage(0);
}

void BcflPeer::publish_weights(std::uint64_t registry_round,
                               const std::vector<float>& weights) {
    // One gas price for every model tx: no peer outbids another for block
    // space.
    constexpr std::uint64_t kGasPrice = 1;
    Bytes payload = ml::serialize_weights(weights);
    const Hash32 model_hash = ml::weights_digest(payload);
    payload.resize(payload.size() + config_.payload_pad_bytes, 0);

    const std::size_t chunk_count =
        (payload.size() + config_.chunk_bytes - 1) / config_.chunk_bytes;

    // Announcement first, then the chunks, with consecutive nonces so the
    // txpool mines them in order.
    const auto submit = [this](Bytes calldata) {
        const std::uint64_t gas_limit =
            21'000 + 16 * static_cast<std::uint64_t>(calldata.size()) +
            300'000;  // intrinsic upper bound + generous VM margin
        node_.submit_tx(chain::Transaction::make_signed(
            node_.key(), next_nonce_++, vm::registry_address(), gas_limit,
            kGasPrice, std::move(calldata)));
    };
    submit(abi::publish_calldata(registry_round, model_hash, chunk_count,
                                 payload.size()));
    for (std::size_t i = 0; i < chunk_count; ++i) {
        const std::size_t begin = i * config_.chunk_bytes;
        const std::size_t end =
            std::min(begin + config_.chunk_bytes, payload.size());
        submit(abi::chunk_calldata(
            registry_round, i,
            BytesView(payload).subspan(begin, end - begin)));
    }
}

std::optional<std::vector<float>> BcflPeer::chain_weights(
    std::uint64_t round, const Address& owner) const {
    const PublishedModel* model = store_.find(round, owner);
    if (model == nullptr || !model->complete()) return std::nullopt;
    Bytes blob = model->assemble();
    // Strip ballast: the serialized blob's true length is implied by the
    // weight count every peer shares.
    const std::size_t expected =
        ml::serialized_weights_size(probe_->weight_count());
    if (blob.size() < expected) return std::nullopt;
    blob.resize(expected);
    if (ml::weights_digest(BytesView(blob)) != model->model_hash) {
        return std::nullopt;  // announcement does not match the payload
    }
    try {
        return ml::deserialize_weights(blob);
    } catch (const Error&) {
        return std::nullopt;
    }
}

void BcflPeer::enter_stage(std::size_t stage) {
    stage_ = stage;
    stage_started_ = transport_.now();
    waiting_ = true;
    ++wait_generation_;  // cancels the previous stage's pending timers
    timer_pending_ = false;
    if (stage_ < stages_.size()) {
        stages_[stage_].policy->begin_wait(stage_view());
    }
    poll_wait_policy();
}

RoundView BcflPeer::stage_view() {
    store_.sync(node_.chain());
    const Stage& stage = stages_[stage_];
    const std::uint64_t round = tier_round(stage.kind, current_round_);
    RoundView view;
    view.round = current_round_;
    view.roster_size = stage.sources.size();
    view.now = transport_.now();
    view.wait_started = stage_started_;
    for (std::size_t c : stage.sources) {
        if (c == config_.index) {
            ++view.models_available;  // own input is local
            continue;
        }
        if (const PublishedModel* m = store_.find(round, roster_[c]);
            m != nullptr && m->complete()) {
            ++view.models_available;
        } else if (stage.backfill_stale &&
                   store_.latest_complete(roster_[c], round) != nullptr) {
            // Backfill candidate. Counted only when the stage will
            // actually consume stale models — the lookup walks the model
            // map and this runs on every head event and policy timer.
            ++view.stale_available;
        }
    }
    return view;
}

void BcflPeer::poll_wait_policy() {
    if (!waiting_) return;
    if (stage_ == stages_.size()) {
        poll_wait_global();
        return;
    }
    WaitPolicy& policy = *stages_[stage_].policy;
    const RoundView view = stage_view();
    const WaitDecision decision = policy.decide(view);
    if (decision != WaitDecision::keep_waiting) {
        aggregate(decision == WaitDecision::timed_out);
        return;
    }
    if (const auto deadline = policy.next_deadline(view);
        deadline.has_value()) {
        schedule_policy_timer(*deadline);
    }
}

void BcflPeer::schedule_policy_timer(net::SimTime when) {
    when = std::max(when, transport_.now());
    // An earlier-or-equal timer is already in flight; it will re-poll and
    // reschedule if the policy's deadline has moved (AdaptiveDeadline).
    if (timer_pending_ && timer_at_ <= when) return;
    timer_pending_ = true;
    timer_at_ = when;
    const std::uint64_t generation = wait_generation_;
    transport_.schedule_at(node_.id(), when, [this, generation, when] {
        if (generation != wait_generation_) return;  // round already closed
        if (timer_pending_ && timer_at_ == when) timer_pending_ = false;
        poll_wait_policy();
    });
}

void BcflPeer::stop_waiting() {
    waiting_ = false;
    ++wait_generation_;  // cancels pending policy timers
    timer_pending_ = false;
}

void BcflPeer::aggregate(bool timed_out) {
    stop_waiting();
    store_.sync(node_.chain());

    const Stage& stage = stages_[stage_];
    const bool member_tier = stage.kind == ModelKind::member;
    const std::uint64_t round = tier_round(stage.kind, current_round_);
    PeerRoundRecord& record = records_.back();
    record.timed_out = record.timed_out || timed_out;

    // Collect the stage's available updates in source order, with their
    // provenance (origin round, on-chain arrival, staleness); what to do
    // with them (combination search, FedAvg, robust trimming, staleness
    // decay, fitness filtering) is entirely the AggregationStrategy's
    // business. Indices and names stay in the global roster space, so
    // combination labels and reputation tracking read the same at every
    // tier. A backfilling stage gives a missing source its newest
    // earlier-round model.
    std::vector<fl::ModelUpdate> updates;
    std::vector<std::size_t> roster_indices;
    std::vector<UpdateMeta> meta;
    std::size_t self_pos = 0;
    for (std::size_t i = 0; i < stage.sources.size(); ++i) {
        const std::size_t c = stage.sources[i];
        if (c == config_.index) {
            // The own input is local: the trained update, or at the
            // cluster stage this head's cluster model, aggregated now.
            self_pos = updates.size();
            updates.push_back({member_tier ? own_update_ : cluster_weights_,
                               stage.weights[i]});
            roster_indices.push_back(c);
            meta.push_back({current_round_,
                            member_tier ? record.published_at
                                        : transport_.now(),
                            0});
            continue;
        }
        if (auto weights = chain_weights(round, roster_[c]);
            weights.has_value()) {
            const PublishedModel* m = store_.find(round, roster_[c]);
            updates.push_back({std::move(*weights), stage.weights[i]});
            roster_indices.push_back(c);
            meta.push_back({current_round_, m->completed_at, 0});
            continue;
        }
        if (!stage.backfill_stale) continue;
        const PublishedModel* stale = store_.latest_complete(roster_[c], round);
        if (stale == nullptr) continue;
        auto weights = chain_weights(stale->round, roster_[c]);
        if (!weights.has_value()) continue;  // integrity check failed
        updates.push_back({std::move(*weights), stage.weights[i]});
        roster_indices.push_back(c);
        meta.push_back({static_cast<std::size_t>(stale->round),
                        stale->completed_at,
                        static_cast<std::size_t>(current_round_) -
                            static_cast<std::size_t>(stale->round)});
        ++record.stale_models_used;
    }

    AggregationInput input;
    input.updates = updates;
    input.roster_indices = roster_indices;
    input.meta = meta;
    input.self_pos = self_pos;
    input.roster_size = roster_.size();
    input.round = current_round_;
    input.now = transport_.now();
    input.names = client_names();
    input.evaluate = [this](std::span<const float> candidate) {
        return evaluate(candidate);
    };
    // Independent per-worker probes so strategies can score candidate
    // combinations in parallel inside this sim event (core/parallel).
    // Evaluation is a pure function of the candidate weights and the local
    // test set, so every probe scores exactly like `evaluate`.
    input.make_evaluator =
        [this]() -> std::function<double(std::span<const float>)> {
        std::shared_ptr<fl::FlModel> probe = task_.make_model();
        return [this, probe](std::span<const float> candidate) {
            probe->set_weights(candidate);
            return probe->evaluate(task_.client_test[config_.index]);
        };
    };
    AggregationResult outcome = stage.aggregation->aggregate(input);

    // One record carries the whole round's table rows: the cluster stage
    // appends its rows to the member stage's.
    record.combos.insert(record.combos.end(),
                         std::make_move_iterator(outcome.combos.begin()),
                         std::make_move_iterator(outcome.combos.end()));
    record.chosen_accuracy = outcome.chosen_accuracy;
    if (member_tier) {
        record.filtered_out = std::move(outcome.filtered_out);
        // Models that actually entered aggregation (fitness-filtered
        // updates excluded).
        record.models_available = updates.size() - record.filtered_out.size();
        record.chosen_label = std::move(outcome.chosen_label);
    } else {
        record.chosen_label = "global";
    }

    if (member_tier && config_.resolved != nullptr) {
        // A head's cluster model: the top head feeds it to its cluster
        // stage; any other head publishes it and waits for the global model.
        cluster_weights_ = std::move(outcome.weights);
        if (stage_ + 1 == stages_.size()) {
            publish_weights(tier_round(ModelKind::cluster, current_round_),
                            cluster_weights_);
        }
        enter_stage(stage_ + 1);
        return;
    }
    // The round's model; in a hierarchy the top head publishes it for
    // everyone else.
    if (config_.resolved != nullptr) {
        publish_weights(tier_round(ModelKind::global, current_round_),
                        outcome.weights);
    }
    global_weights_ = std::move(outcome.weights);
    complete_round();
}

void BcflPeer::poll_wait_global() {
    store_.sync(node_.chain());
    PeerRoundRecord& record = records_.back();
    const bool member = stages_.empty();
    if (auto weights =
            chain_weights(tier_round(ModelKind::global, current_round_),
                          roster_[config_.resolved->top_head]);
        weights.has_value()) {
        stop_waiting();
        global_weights_ = std::move(*weights);
        record.chosen_label = "global";
        record.chosen_accuracy = evaluate(global_weights_);
        if (member) record.models_available = 1;  // the adopted global model
        complete_round();
        return;
    }
    const net::SimTime deadline =
        stage_started_ + config_.topology.member_timeout;
    if (transport_.now() >= deadline) {
        // Give up on this round's global model: fall back to the best
        // model this role holds and move on (the "not to wait" branch at
        // the hierarchy's edges).
        stop_waiting();
        record.timed_out = true;
        global_weights_ = member ? own_update_ : cluster_weights_;
        record.chosen_label = member ? "self" : "cluster";
        record.chosen_accuracy = evaluate(global_weights_);
        complete_round();
        return;
    }
    schedule_policy_timer(deadline);
}

void BcflPeer::complete_round() {
    records_.back().aggregated_at = transport_.now();
    ++completed_rounds_;
    begin_round();
}

double BcflPeer::evaluate(std::span<const float> weights) {
    probe_->set_weights(weights);
    return probe_->evaluate(task_.client_test[config_.index]);
}

std::string BcflPeer::client_names() const {
    std::string names;
    for (std::size_t i = 0; i < roster_.size(); ++i) {
        // Cycled alphabet: labels stay printable past 26 peers (labels are
        // reporting-only; identity is the roster index).
        names.push_back(static_cast<char>('A' + (i % 26)));
    }
    return names;
}

}  // namespace bcfl::core
