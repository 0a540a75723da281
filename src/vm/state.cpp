#include "vm/state.hpp"

#include "common/error.hpp"
#include "crypto/keccak.hpp"

namespace bcfl::vm {

const Hash32& WorldState::empty_code_hash() {
    static const Hash32 hash = crypto::keccak256(Bytes{});
    return hash;
}

void WorldState::deploy(const Address& address, Bytes code) {
    Account& account = accounts_[address];
    account.code = std::move(code);
    account.code_hash = crypto::keccak256(account.code);
}

std::shared_ptr<const CodeAnalysis> WorldState::install(const Address& address,
                                                        Bytes code,
                                                        AnalysisCache& cache) {
    auto analysis = cache.get(code);
    if (analysis->valid()) deploy(address, std::move(code));
    return analysis;
}

bool WorldState::has_contract(const Address& address) const {
    const auto it = accounts_.find(address);
    return it != accounts_.end() && !it->second.code.empty();
}

const Bytes& WorldState::code_at(const Address& address) const {
    const auto it = accounts_.find(address);
    if (it == accounts_.end()) throw Error("no contract at address");
    return it->second.code;
}

const Hash32& WorldState::code_hash_at(const Address& address) const {
    const auto it = accounts_.find(address);
    if (it == accounts_.end()) throw Error("no contract at address");
    return it->second.code_hash;
}

crypto::U256 WorldState::storage_load(const Address& address,
                                      const crypto::U256& key) const {
    const auto account_it = accounts_.find(address);
    if (account_it == accounts_.end()) return {};
    const auto slot_it = account_it->second.storage.find(key);
    return slot_it == account_it->second.storage.end() ? crypto::U256{}
                                                       : slot_it->second;
}

void WorldState::storage_store(const Address& address, const crypto::U256& key,
                               const crypto::U256& value) {
    if (value.is_zero()) {
        const auto it = accounts_.find(address);
        if (it != accounts_.end()) it->second.storage.erase(key);
        return;
    }
    accounts_[address].storage[key] = value;
}

Hash32 WorldState::state_root() const {
    Bytes preimage;
    for (const auto& [address, account] : accounts_) {
        append(preimage, address.view());
        append(preimage, account.code_hash.view());
        for (const auto& [key, value] : account.storage) {
            append(preimage, key.to_hash().view());
            append(preimage, value.to_hash().view());
        }
    }
    return crypto::keccak256(preimage);
}

}  // namespace bcfl::vm
