// ModelStore: the web3-style chain observer of a fully-coupled peer.
//
// Scans the canonical chain for registry events (ModelPublished /
// ChunkStored), pulls chunk payloads out of transaction calldata
// (calldata-as-data-availability), keeps a chunk only when its log's
// publisher is the transaction's sender, and reassembles the weight blobs.
// A model is complete once every announced chunk index has arrived; no
// chunk is checked against a digest here. The one integrity check, the
// keccak of the whole blob against the announced model hash, runs at
// aggregation time (BcflPeer::chain_weights).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "common/bytes.hpp"
#include "net/sim.hpp"

namespace bcfl::core {

/// Aggregation tier a published model belongs to (hierarchical topologies,
/// core/topology.hpp). The registry contract keys models by a uint64
/// round; tiers are encoded into its high bits via `tier_round` so the
/// on-chain contract needs no schema change and flat deployments (always
/// ModelKind::member) keep their exact historical round numbering.
enum class ModelKind : std::uint8_t {
    member = 0,   ///< a peer's locally trained update
    cluster = 1,  ///< a cluster head's tier-1 aggregate
    global = 2,   ///< the top head's tier-2 aggregate for the round
};

/// Registry round key for (kind, communication round). member models map
/// to the plain round number, so flat rounds are bit-identical to the
/// pre-tier encoding.
[[nodiscard]] constexpr std::uint64_t tier_round(ModelKind kind,
                                                 std::uint64_t round) {
    return round + (static_cast<std::uint64_t>(kind) << 40);
}

/// Inverse of `tier_round` for the kind bits (rounds stay below 2^40).
[[nodiscard]] constexpr ModelKind tier_of(std::uint64_t registry_round) {
    return static_cast<ModelKind>(registry_round >> 40);
}

struct PublishedModel {
    Address owner;
    std::uint64_t round = 0;
    Hash32 model_hash;
    std::uint64_t chunk_count = 0;
    std::uint64_t size_bytes = 0;
    std::map<std::uint64_t, Bytes> chunks;  // index -> payload
    /// Timestamp of the block whose ingestion completed the model (0 while
    /// incomplete) — the arrival time staleness-aware aggregation decays by.
    net::SimTime completed_at = 0;

    [[nodiscard]] bool complete() const {
        return chunk_count > 0 && chunks.size() == chunk_count;
    }
    /// Concatenated payload (chunks in index order); call only if complete.
    [[nodiscard]] Bytes assemble() const;
};

class ModelStore {
public:
    /// Ingestion filter: when set, only registry events whose
    /// (registry round, owner) the predicate accepts are stored. A peer in
    /// a hierarchical topology needs a small, role-specific slice of the
    /// registry traffic (a member only the global models, a head only its
    /// own cluster's member models plus the cluster/global tier), and at
    /// hundreds of peers storing everything at every peer is the dominant
    /// memory cost. Set before the first sync; the filter must be a pure
    /// function of its arguments, or reorg rescans diverge.
    using Filter = std::function<bool(std::uint64_t registry_round,
                                      const Address& owner)>;
    void set_filter(Filter filter) { filter_ = std::move(filter); }

    /// Brings the store up to date with the canonical chain of `chain`.
    /// Incremental: a last-synced-height cursor means each call only scans
    /// the blocks appended since the previous call (O(new blocks), not
    /// O(height) — polling every head event stays linear per run). When the
    /// cursor's block is no longer canonical (reorg) the store falls back
    /// to a full rescan; ingestion is idempotent, so re-scanning shared
    /// prefix blocks is harmless.
    void sync(const chain::Blockchain& chain);

    /// Publishers with a *complete* model (every chunk present) for
    /// `round`; the blob's hash is not checked until aggregation.
    [[nodiscard]] std::vector<Address> ready_publishers(
        std::uint64_t round) const;

    /// All announced publishers for `round` (complete or not).
    [[nodiscard]] std::vector<Address> announced_publishers(
        std::uint64_t round) const;

    [[nodiscard]] const PublishedModel* find(std::uint64_t round,
                                             const Address& owner) const;

    /// The most recent *complete* model from `owner` with
    /// round < before_round, or nullptr — the stale-update fallback a
    /// staleness-aware AggregationStrategy backfills from.
    [[nodiscard]] const PublishedModel* latest_complete(
        const Address& owner, std::uint64_t before_round) const;

    /// Cumulative number of block ingestions performed (reorg rescans count
    /// their re-ingested blocks). A synced store re-synced against an
    /// unchanged chain performs zero new ingestions.
    [[nodiscard]] std::size_t blocks_scanned() const {
        return blocks_ingested_;
    }

    /// Height of the canonical block the incremental cursor sits on (0
    /// before the first non-empty sync).
    [[nodiscard]] std::uint64_t synced_height() const {
        return synced_height_;
    }

private:
    void ingest(const chain::Block& block,
                const std::vector<chain::Receipt>& receipts);

    using Key = std::pair<std::uint64_t, Address>;
    std::map<Key, PublishedModel> models_;
    Filter filter_;
    // Incremental-sync cursor: every canonical block up to `synced_height_`
    // (whose hash is `synced_hash_`) has been ingested. Replaces the
    // old per-block-hash scanned set, which grew without bound and forced
    // an O(height) walk on every poll.
    std::uint64_t synced_height_ = 0;
    Hash32 synced_hash_{};
    std::size_t blocks_ingested_ = 0;
};

}  // namespace bcfl::core
