// Contract world state: per-address key/value storage plus deployed code.
//
// The state root is a deterministic commitment over the sorted storage
// contents; every node recomputes it after executing a block and the value is
// sealed into the block header, so divergent execution is detected at import.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/u256.hpp"
#include "vm/analysis.hpp"

namespace bcfl::vm {

/// Storage of a single contract account (ordered map so the commitment is
/// canonical without sorting at hash time).
using AccountStorage = std::map<crypto::U256, crypto::U256>;

class WorldState {
public:
    /// Installs contract code at an address unconditionally (genesis-style
    /// deployment, trusted callers and tests). Untrusted code reaching the
    /// chain goes through install() instead.
    void deploy(const Address& address, Bytes code);

    /// Checked installation: analyzes `code` through `cache` and installs
    /// it only when the verdict is valid. Returns the analysis either way
    /// so the caller can surface the rejecting diagnostic.
    std::shared_ptr<const CodeAnalysis> install(const Address& address,
                                                Bytes code,
                                                AnalysisCache& cache);

    [[nodiscard]] bool has_contract(const Address& address) const;
    [[nodiscard]] const Bytes& code_at(const Address& address) const;
    /// keccak256 of the deployed code, cached at deploy time (throws like
    /// code_at when the address holds no account).
    [[nodiscard]] const Hash32& code_hash_at(const Address& address) const;

    [[nodiscard]] crypto::U256 storage_load(const Address& address,
                                            const crypto::U256& key) const;
    void storage_store(const Address& address, const crypto::U256& key,
                       const crypto::U256& value);

    /// Canonical commitment over all accounts (code hash + storage).
    [[nodiscard]] Hash32 state_root() const;

    [[nodiscard]] std::size_t contract_count() const { return accounts_.size(); }

private:
    static const Hash32& empty_code_hash();

    struct Account {
        Bytes code;
        // Cached keccak256(code): consulted by the AnalysisCache on every
        // call and by state_root() for every account, so it is computed
        // once at deploy time instead of per use.
        Hash32 code_hash = empty_code_hash();
        AccountStorage storage;
    };
    std::map<Address, Account> accounts_;
};

}  // namespace bcfl::vm
