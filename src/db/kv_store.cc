#include "db/kv_store.h"

#include <algorithm>
#include <cstdlib>

#include "core/check.h"

namespace fastcommit::db {

namespace {

int64_t ParseInt(const Value& value) {
  if (value.empty()) return 0;
  return std::strtoll(value.c_str(), nullptr, 10);
}

}  // namespace

std::optional<Value> KvStore::Get(const Key& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second.back().value;
}

std::optional<Value> KvStore::GetAtSnapshot(const Key& key,
                                            int64_t snapshot_csn) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  const Chain& chain = it->second;
  // Newest version with csn <= snapshot: chains are short (pruned to the
  // GC watermark), so a backward scan beats a binary search in practice.
  for (auto v = chain.rbegin(); v != chain.rend(); ++v) {
    if (v->csn <= snapshot_csn) return v->value;
  }
  return std::nullopt;  // key born after the snapshot
}

void KvStore::Put(const Key& key, Value value) {
  Chain& chain = map_[key];
  if (chain.empty()) {
    chain.push_back(Version{0, std::move(value)});
    ++total_versions_;
  } else {
    chain.back().value = std::move(value);
  }
}

bool KvStore::Erase(const Key& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  total_versions_ -= static_cast<int64_t>(it->second.size());
  map_.erase(it);
  return true;
}

void KvStore::Apply(const Op& op, int64_t csn, int64_t gc_watermark) {
  if (op.type == Op::Type::kGet) return;  // reads mutate nothing
  // One probe: the kAdd base and the write both come from this chain.
  Chain& chain = map_[op.key];
  Value value;
  if (op.type == Op::Type::kPut) {
    value = op.value;
  } else {
    int64_t base = chain.empty() ? 0 : ParseInt(chain.back().value);
    value = std::to_string(base + op.delta);
  }
  if (!chain.empty() && chain.back().csn >= csn) {
    // Same-commit second op, or a non-transactional head overwrite: the
    // chain gains no version and CSN order stays strict.
    chain.back().value = std::move(value);
  } else if (chain.empty() || gc_watermark < csn) {
    chain.push_back(Version{csn, std::move(value)});
    ++total_versions_;
  } else {
    // The new version is the watermark base, so no reader can reach any
    // older one: overwrite the chain in place, leaving exactly what
    // appending and pruning would, without the reallocation.
    total_versions_ -= static_cast<int64_t>(chain.size()) - 1;
    chain.erase(chain.begin() + 1, chain.end());
    chain.front() = Version{csn, std::move(value)};
  }
  if (gc_watermark > 0) total_versions_ -= PruneChain(chain, gc_watermark);
}

int64_t KvStore::AddInt(const Key& key, int64_t delta) {
  int64_t next = GetInt(key) + delta;
  Put(key, std::to_string(next));
  return next;
}

int64_t KvStore::GetInt(const Key& key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return 0;
  return ParseInt(it->second.back().value);
}

int64_t KvStore::GetIntAtSnapshot(const Key& key, int64_t snapshot_csn) const {
  std::optional<Value> value = GetAtSnapshot(key, snapshot_csn);
  return value.has_value() ? ParseInt(*value) : 0;
}

int64_t KvStore::versions(const Key& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

int64_t KvStore::PruneChain(Chain& chain, int64_t watermark) {
  // Keep the newest version with csn <= watermark (the base every snapshot
  // at or above the watermark resolves to) and everything newer. Versions
  // strictly older than that base are invisible to all live and future
  // readers — the watermark is the minimum CSN any of them can hold.
  size_t base = 0;
  for (size_t i = chain.size(); i-- > 0;) {
    if (chain[i].csn <= watermark) {
      base = i;
      break;
    }
  }
  if (base == 0) return 0;
  chain.erase(chain.begin(), chain.begin() + static_cast<ptrdiff_t>(base));
  return static_cast<int64_t>(base);
}

int64_t KvStore::Truncate(int64_t watermark) {
  int64_t dropped = 0;
  for (auto& [key, chain] : map_) dropped += PruneChain(chain, watermark);
  total_versions_ -= dropped;
  return dropped;
}

int64_t KvStore::SumInts() const {
  int64_t sum = 0;
  for (const auto& [key, chain] : map_) sum += ParseInt(chain.back().value);
  return sum;
}

void KvStore::CheckInvariants() const {
  int64_t counted = 0;
  for (const auto& [key, chain] : map_) {
    FC_CHECK(!chain.empty()) << "empty version chain for key '" << key << "'";
    counted += static_cast<int64_t>(chain.size());
    for (size_t i = 1; i < chain.size(); ++i) {
      FC_CHECK(chain[i - 1].csn < chain[i].csn)
          << "version chain of '" << key << "' not strictly increasing: csn "
          << chain[i - 1].csn << " then " << chain[i].csn;
    }
  }
  FC_CHECK(counted == total_versions_)
      << "version counter " << total_versions_ << " != chains total "
      << counted;
}

}  // namespace fastcommit::db
