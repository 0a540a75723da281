// Pluggable round-loop policies — the paper's wait-or-not-to-wait axis as a
// first-class API instead of config booleans.
//
// Two small strategy interfaces drive a BcflPeer's round loop:
//
//   * WaitPolicy — consulted whenever the peer's chain view changes (new
//     head may complete a model) or a policy deadline fires. From a
//     RoundView of on-chain models + simulated time it decides: aggregate
//     now, keep waiting, or give up (asynchronous aggregation with whatever
//     arrived — the paper's "not to wait" path).
//
//   * AggregationStrategy — turns the round's available updates into the
//     peer's next global model, and reports the per-combination accuracy
//     rows that make up the paper's Tables II-IV.
//
// Concrete policies cover the paper and beyond: WaitForK / WaitAll /
// Deadline / AdaptiveDeadline (the §V "middle ground": the deadline extends
// while models are still arriving) / ScheduledPolicy (per-round-range
// switching, e.g. warm-up-sync then steady-state-async); BestCombination
// ("consider"), FedAvgAll ("not consider"), TrimmedMean (robust aggregation
// for the poisoning scenario), StalenessWeightedFedAvg (discounts late
// updates, making the timed-out asynchronous path precision-aware) and
// ReputationWeighted (exponentially-smoothed contributor quality history).
// `make_wait_policy` / `make_aggregation_strategy` build any of them from
// compact string specs such as "wait_for=3,timeout=900s" or
// "schedule,1-5:wait_all,6+:deadline=600s", so deployments (and scenario
// specs) can select policies without recompiling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fl/combinations.hpp"
#include "fl/fedavg.hpp"
#include "net/sim.hpp"

namespace bcfl::core {

// ------------------------------------------------------------- WaitPolicy

/// What a peer can observe while deciding whether to aggregate: its own
/// chain view condensed to "how many complete models for this round", plus
/// the simulated clock.
struct RoundView {
    std::size_t round = 0;             // 1-based communication round
    std::size_t roster_size = 0;       // total participants
    std::size_t models_available = 0;  // complete models visible (incl. own)
    /// Roster members without a current-round model whose most recent
    /// *earlier*-round model is complete on chain — the candidates a
    /// staleness-aware strategy can backfill from if the policy gives up.
    /// Populated only when the peer's strategy opts into stale updates
    /// (`wants_stale_updates`); always 0 otherwise.
    std::size_t stale_available = 0;
    net::SimTime now = 0;              // current simulated time
    net::SimTime wait_started = 0;     // when this peer began waiting
};

enum class WaitDecision {
    keep_waiting,    // not yet — re-consult on the next event or deadline
    aggregate_now,   // the policy's arrival condition is met
    timed_out,       // give up and aggregate the incomplete set (async path)
};

class WaitPolicy {
public:
    virtual ~WaitPolicy() = default;

    /// Resets per-round state; called once when the peer starts waiting.
    virtual void begin_wait(const RoundView& view) { (void)view; }

    /// The decision for the current view. May update internal state (e.g.
    /// AdaptiveDeadline tracks arrivals), so call once per observed change.
    [[nodiscard]] virtual WaitDecision decide(const RoundView& view) = 0;

    /// Absolute simulated time at which `decide` must be consulted again
    /// even if no new model arrives (nullopt: purely arrival-driven).
    [[nodiscard]] virtual std::optional<net::SimTime> next_deadline(
        const RoundView& view) const = 0;

    /// Short human-readable policy name, e.g. "wait_for_k".
    [[nodiscard]] virtual std::string name() const = 0;

    /// Canonical factory spec: `make_wait_policy(p.spec())` reproduces `p`.
    [[nodiscard]] virtual std::string spec() const = 0;
};

/// Aggregate as soon as K complete models (incl. own) are visible; fall back
/// to asynchronous aggregation after `timeout`. K >= roster size behaves as
/// the paper's synchronous mode. Spec: "wait_for=3,timeout=900s".
class WaitForK final : public WaitPolicy {
public:
    explicit WaitForK(std::size_t k, net::SimTime timeout = net::seconds(900))
        : k_(k), timeout_(timeout) {}

    [[nodiscard]] WaitDecision decide(const RoundView& view) override;
    [[nodiscard]] std::optional<net::SimTime> next_deadline(
        const RoundView& view) const override;
    [[nodiscard]] std::string name() const override { return "wait_for_k"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] std::size_t k() const { return k_; }
    [[nodiscard]] net::SimTime timeout() const { return timeout_; }

private:
    std::size_t k_;
    net::SimTime timeout_;
};

/// Synchronous mode: wait for every roster member (safety-valve timeout).
/// Spec: "wait_all,timeout=900s".
class WaitAll final : public WaitPolicy {
public:
    explicit WaitAll(net::SimTime timeout = net::seconds(900))
        : timeout_(timeout) {}

    [[nodiscard]] WaitDecision decide(const RoundView& view) override;
    [[nodiscard]] std::optional<net::SimTime> next_deadline(
        const RoundView& view) const override;
    [[nodiscard]] std::string name() const override { return "wait_all"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] net::SimTime timeout() const { return timeout_; }

private:
    net::SimTime timeout_;
};

/// Pure deadline aggregation: take whatever is on chain `after` the wait
/// began (aggregating early only if the full roster arrives first).
/// Spec: "deadline=120s".
class Deadline final : public WaitPolicy {
public:
    explicit Deadline(net::SimTime after) : after_(after) {}

    [[nodiscard]] WaitDecision decide(const RoundView& view) override;
    [[nodiscard]] std::optional<net::SimTime> next_deadline(
        const RoundView& view) const override;
    [[nodiscard]] std::string name() const override { return "deadline"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] net::SimTime after() const { return after_; }

private:
    net::SimTime after_;
};

/// The paper's §V middle ground: start from a base deadline and push it out
/// by `extend` every time another model lands — models still arriving are
/// evidence that waiting a little longer will pay — but never beyond
/// `max` after the wait began. Spec: "adaptive,base=60s,extend=30s,max=300s".
class AdaptiveDeadline final : public WaitPolicy {
public:
    AdaptiveDeadline(net::SimTime base, net::SimTime extend, net::SimTime max)
        : base_(base), extend_(extend), max_(max) {}

    void begin_wait(const RoundView& view) override;
    [[nodiscard]] WaitDecision decide(const RoundView& view) override;
    [[nodiscard]] std::optional<net::SimTime> next_deadline(
        const RoundView& view) const override;
    [[nodiscard]] std::string name() const override { return "adaptive"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] net::SimTime base() const { return base_; }
    [[nodiscard]] net::SimTime extend() const { return extend_; }
    [[nodiscard]] net::SimTime max() const { return max_; }
    /// Current absolute deadline (valid between begin_wait and aggregation).
    [[nodiscard]] net::SimTime current_deadline() const { return deadline_; }

private:
    net::SimTime base_;
    net::SimTime extend_;
    net::SimTime max_;
    // Per-round state.
    net::SimTime deadline_ = 0;
    net::SimTime hard_cap_ = 0;
    std::size_t seen_models_ = 0;
};

/// Per-round policy switching: delegates to a different WaitPolicy per
/// 1-based round range, enabling warm-up-sync / steady-state-async
/// deployments without touching the peer. Ranges must start at round 1, be
/// contiguous, and end with an open range ("N+") so every round is covered.
/// Spec: "schedule,1-5:wait_all,6+:deadline=600s" (an inner policy's own
/// comma-separated keys simply continue until the next "N-M:" / "N+:"
/// prefix).
class ScheduledPolicy final : public WaitPolicy {
public:
    struct Entry {
        std::size_t first_round = 1;  // inclusive, 1-based
        std::size_t last_round = 0;   // inclusive; 0 = open-ended
        std::unique_ptr<WaitPolicy> policy;
    };

    /// Validates coverage (starts at 1, contiguous, open tail); throws
    /// Error otherwise.
    explicit ScheduledPolicy(std::vector<Entry> entries);

    void begin_wait(const RoundView& view) override;
    [[nodiscard]] WaitDecision decide(const RoundView& view) override;
    [[nodiscard]] std::optional<net::SimTime> next_deadline(
        const RoundView& view) const override;
    [[nodiscard]] std::string name() const override { return "schedule"; }
    [[nodiscard]] std::string spec() const override;

    /// The delegate in charge of `round` (1-based).
    [[nodiscard]] const WaitPolicy& policy_for(std::size_t round) const;

private:
    [[nodiscard]] WaitPolicy& active(std::size_t round) const;
    std::vector<Entry> entries_;
};

// ---------------------------------------------------- AggregationStrategy

/// One row of the paper's per-peer tables: a candidate combination and its
/// accuracy on this peer's local test set.
struct ComboAccuracy {
    fl::Combination combo;   // indices into the client roster
    std::string label;       // e.g. "A,C"
    double accuracy = 0.0;
    bool available = true;   // all members' models were on chain
};

/// Per-update provenance threaded from the peer's chain view: the round the
/// update was trained for, when its final chunk landed on this peer's
/// canonical chain, and how many rounds late it is relative to the
/// aggregating round (0 = fresh). Staleness-aware strategies turn this into
/// decay weights; everyone else may ignore it.
struct UpdateMeta {
    std::size_t origin_round = 0;
    net::SimTime arrived_at = 0;
    std::size_t staleness = 0;  // aggregating round - origin_round
};

/// Everything an AggregationStrategy may consult. `updates` holds the
/// round's available updates in roster order (own update always present);
/// `roster_indices[i]` is the roster position of `updates[i]`; `meta[i]`
/// (when non-empty) is the provenance of `updates[i]`; `evaluate` scores a
/// candidate weight vector on the peer's local test set.
struct AggregationInput {
    std::span<const fl::ModelUpdate> updates;
    std::span<const std::size_t> roster_indices;
    std::span<const UpdateMeta> meta;  // aligned with updates; may be empty
    std::size_t self_pos = 0;     // position of the peer's own update
    std::size_t roster_size = 0;
    std::size_t round = 0;        // aggregating round (1-based)
    net::SimTime now = 0;         // simulated aggregation time
    std::string names;            // roster letters, e.g. "ABC"
    std::function<double(std::span<const float>)> evaluate;
    /// Optional factory for additional, *independent* evaluators scoring on
    /// the same test set as `evaluate`. When present, strategies score
    /// candidate combinations concurrently through `core/parallel` (one
    /// evaluator per worker, created serially on the calling thread) inside
    /// the current sim event. Every evaluator must be a pure function of the
    /// candidate weights, identical to `evaluate` — that is what keeps
    /// multi-threaded fitness bit-identical to the serial path. Absent (or
    /// with a serial engine) strategies evaluate through `evaluate` alone.
    std::function<std::function<double(std::span<const float>)>()>
        make_evaluator;
};

struct AggregationResult {
    std::vector<float> weights;           // the next global model
    std::string chosen_label;
    double chosen_accuracy = 0.0;
    std::vector<ComboAccuracy> combos;    // table rows (may be one)
    std::vector<std::size_t> filtered_out;  // roster indices dropped by the
                                            // §III-A fitness pre-filter
};

class AggregationStrategy {
public:
    virtual ~AggregationStrategy() = default;

    [[nodiscard]] virtual AggregationResult aggregate(
        const AggregationInput& input) = 0;

    [[nodiscard]] virtual std::string name() const = 0;
    /// Canonical factory spec (round-trips through
    /// `make_aggregation_strategy`).
    [[nodiscard]] virtual std::string spec() const = 0;

    /// When true, the peer backfills roster members that have no
    /// current-round model with their most recent earlier-round model
    /// (provenance recorded in AggregationInput::meta) before aggregating —
    /// the asynchronous FLchain idiom. Strategies that cannot discount
    /// stale updates keep the default fresh-only view.
    [[nodiscard]] virtual bool wants_stale_updates() const { return false; }

protected:
    /// §III-A fitness pre-filter shared by the concrete strategies: returns
    /// the positions (into input.updates) that survive, always keeping the
    /// peer's own update, and appends dropped roster indices to `result`.
    /// A non-null `solo_out` receives, aligned with the returned positions,
    /// the solo accuracy the filter computed for each kept update (NaN
    /// where it did not evaluate — the peer's own update, or everything
    /// when the threshold is off), so strategies that need solo scores
    /// anyway (ReputationWeighted) do not evaluate twice.
    [[nodiscard]] static std::vector<std::size_t> fitness_filter(
        const AggregationInput& input, double threshold,
        AggregationResult& result, std::vector<double>* solo_out = nullptr);
};

/// The paper's personalized "consider" aggregation: evaluate every paper
/// combination of the available updates on the local test set and adopt the
/// best. Spec: "best_combination" or "best_combination,fitness=0.15".
class BestCombination final : public AggregationStrategy {
public:
    explicit BestCombination(double fitness_threshold = 0.0)
        : fitness_threshold_(fitness_threshold) {}

    [[nodiscard]] AggregationResult aggregate(
        const AggregationInput& input) override;
    [[nodiscard]] std::string name() const override {
        return "best_combination";
    }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] double fitness_threshold() const {
        return fitness_threshold_;
    }

private:
    double fitness_threshold_;
};

/// Vanilla "not consider": FedAvg over every available update.
/// Spec: "fedavg_all" (optionally ",fitness=F").
class FedAvgAll final : public AggregationStrategy {
public:
    explicit FedAvgAll(double fitness_threshold = 0.0)
        : fitness_threshold_(fitness_threshold) {}

    [[nodiscard]] AggregationResult aggregate(
        const AggregationInput& input) override;
    [[nodiscard]] std::string name() const override { return "fedavg_all"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] double fitness_threshold() const {
        return fitness_threshold_;
    }

private:
    double fitness_threshold_;
};

/// Robust aggregation for the poisoning scenario: per coordinate, drop the
/// `trim` largest and `trim` smallest values across updates and average the
/// rest. Falls back to FedAvg when fewer than 2*trim+1 updates are
/// available. Spec: "trimmed_mean,trim=1".
class TrimmedMean final : public AggregationStrategy {
public:
    explicit TrimmedMean(std::size_t trim = 1, double fitness_threshold = 0.0)
        : trim_(trim), fitness_threshold_(fitness_threshold) {}

    [[nodiscard]] AggregationResult aggregate(
        const AggregationInput& input) override;
    [[nodiscard]] std::string name() const override { return "trimmed_mean"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] std::size_t trim() const { return trim_; }
    [[nodiscard]] double fitness_threshold() const {
        return fitness_threshold_;
    }

private:
    std::size_t trim_;
    double fitness_threshold_;
};

/// Coordinate-wise trimmed mean over `updates` (exposed for testing).
[[nodiscard]] std::vector<float> trimmed_mean(
    std::span<const fl::ModelUpdate> updates,
    std::span<const std::size_t> positions, std::size_t trim);

/// Staleness-discounted FedAvg (the asynchronous-FLchain mixing rule): each
/// update's FedAvg weight is multiplied by 2^(-staleness / half_life), so a
/// straggler's last published model still contributes — at a discount that
/// halves every `half_life` — instead of being dropped by the timed-out
/// path. The half-life is either in rounds (decay by `UpdateMeta::staleness`;
/// spec "staleness_fedavg,half_life=2r") or in simulated time (decay by the
/// update's age `now - arrived_at`; spec "staleness_fedavg,half_life=300s").
/// Requests stale backfill from the peer via `wants_stale_updates`.
class StalenessWeightedFedAvg final : public AggregationStrategy {
public:
    [[nodiscard]] static StalenessWeightedFedAvg by_rounds(
        double half_life_rounds, double fitness_threshold = 0.0);
    [[nodiscard]] static StalenessWeightedFedAvg by_age(
        net::SimTime half_life, double fitness_threshold = 0.0);

    [[nodiscard]] AggregationResult aggregate(
        const AggregationInput& input) override;
    [[nodiscard]] std::string name() const override {
        return "staleness_fedavg";
    }
    [[nodiscard]] std::string spec() const override;
    [[nodiscard]] bool wants_stale_updates() const override { return true; }

    /// The multiplicative FedAvg discount for an update with provenance
    /// `meta` aggregated at `now`: 1.0 for a fresh update, 0.5 one
    /// half-life late (exposed for the decay-math tests).
    [[nodiscard]] double decay(const UpdateMeta& meta, net::SimTime now) const;

    /// Half-life in rounds, or 0 when age-based.
    [[nodiscard]] double half_life_rounds() const { return half_life_rounds_; }
    /// Half-life in simulated time, or 0 when round-based.
    [[nodiscard]] net::SimTime half_life_age() const { return half_life_age_; }
    [[nodiscard]] double fitness_threshold() const {
        return fitness_threshold_;
    }

private:
    StalenessWeightedFedAvg(double half_life_rounds, net::SimTime half_life_age,
                            double fitness_threshold)
        : half_life_rounds_(half_life_rounds),
          half_life_age_(half_life_age),
          fitness_threshold_(fitness_threshold) {}

    double half_life_rounds_ = 0.0;    // > 0: rounds-late decay
    net::SimTime half_life_age_ = 0;   // > 0: arrival-age decay
    double fitness_threshold_;
};

/// Contributor-reputation weighting (multi-aggregator-style quality
/// weights): each round, every contributor's solo accuracy on this peer's
/// local test set updates an exponentially-smoothed reputation
/// (r <- (1-alpha)*r + alpha*acc, seeded by the first observation), and the
/// FedAvg weight of its update is multiplied by max(floor, r). The history
/// lives in the strategy instance, which a BcflPeer keeps for its whole
/// deployment — reputation genuinely persists across rounds, per peer.
/// Spec: "reputation[,alpha=A][,floor=L][,fitness=F]".
class ReputationWeighted final : public AggregationStrategy {
public:
    explicit ReputationWeighted(double alpha = 0.3, double floor = 0.05,
                                double fitness_threshold = 0.0);

    [[nodiscard]] AggregationResult aggregate(
        const AggregationInput& input) override;
    [[nodiscard]] std::string name() const override { return "reputation"; }
    [[nodiscard]] std::string spec() const override;

    [[nodiscard]] double alpha() const { return alpha_; }
    [[nodiscard]] double floor() const { return floor_; }
    [[nodiscard]] double fitness_threshold() const {
        return fitness_threshold_;
    }
    /// Smoothed per-roster-index reputation observed so far (empty before
    /// the first aggregation; NaN-free: unobserved members hold 1.0).
    [[nodiscard]] const std::vector<double>& reputation() const {
        return reputation_;
    }

private:
    double alpha_;
    double floor_;
    double fitness_threshold_;
    // Cross-round state, keyed by roster index.
    std::vector<double> reputation_;
    std::vector<bool> observed_;
};

// ---------------------------------------------------------------- Factory

/// Builds a WaitPolicy from a spec string. Accepted forms:
///   "wait_for=K[,timeout=T]"            -> WaitForK
///   "wait_all[,timeout=T]"              -> WaitAll
///   "deadline=T" / "deadline,after=T"   -> Deadline
///   "adaptive[,base=T][,extend=T][,max=T]" -> AdaptiveDeadline
///   "schedule,1-5:SPEC,6+:SPEC"         -> ScheduledPolicy (sub-specs are
///                                          any non-schedule wait spec)
/// Durations T accept "900" / "900s" (seconds) or "500ms". Throws Error on
/// malformed specs.
[[nodiscard]] std::unique_ptr<WaitPolicy> make_wait_policy(
    const std::string& spec);

/// Builds an AggregationStrategy from a spec string. Accepted forms:
///   "best_combination[,fitness=F]"   (alias "consider")
///   "fedavg_all[,fitness=F]"         (aliases "not_consider", "all")
///   "trimmed_mean[,trim=M][,fitness=F]"
///   "staleness_fedavg[,half_life=Nr|T][,fitness=F]"  (default 1r)
///   "reputation[,alpha=A][,floor=L][,fitness=F]"
[[nodiscard]] std::unique_ptr<AggregationStrategy> make_aggregation_strategy(
    const std::string& spec);

/// Formats a SimTime as the factory's duration literal ("900s" / "1500ms").
[[nodiscard]] std::string format_duration(net::SimTime t);

}  // namespace bcfl::core
