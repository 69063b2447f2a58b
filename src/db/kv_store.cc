#include "db/kv_store.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <utility>

#include "core/check.h"

namespace fastcommit::db {

namespace {

int64_t ParseInt(const Value& value) {
  if (value.empty()) return 0;
  return std::strtoll(value.c_str(), nullptr, 10);
}

}  // namespace

KvStore::KvStore(const KvStore& other)
    : size_(other.size_),
      index_(other.index_),
      total_versions_(other.total_versions_) {
  chunks_.reserve(other.chunks_.size());
  for (uint32_t first = 0; first < size_; first += kChunkSize) {
    auto chunk = std::make_unique<Entry[]>(kChunkSize);
    std::copy_n(other.chunks_[first >> kChunkShift].get(),
                std::min(size_ - first, kChunkSize), chunk.get());
    chunks_.push_back(std::move(chunk));
  }
}

KvStore& KvStore::operator=(const KvStore& other) {
  if (this != &other) *this = KvStore(other);
  return *this;
}

KvStore::KvStore(KvStore&& other) noexcept
    : chunks_(std::exchange(other.chunks_, {})),
      size_(std::exchange(other.size_, 0)),
      index_(std::exchange(other.index_, {})),
      total_versions_(std::exchange(other.total_versions_, 0)) {}

KvStore& KvStore::operator=(KvStore&& other) noexcept {
  chunks_ = std::exchange(other.chunks_, {});
  size_ = std::exchange(other.size_, 0);
  index_ = std::exchange(other.index_, {});
  total_versions_ = std::exchange(other.total_versions_, 0);
  return *this;
}

uint32_t KvStore::Tag(const Key& key) {
  // std::hash, not the routing FNV-1a: every key of one partition shares
  // its FNV-1a residue modulo the partition count, so indexing by FNV-1a
  // low bits would pile the partition's keys into a fraction of the slots.
  uint64_t hash = std::hash<Key>{}(key);
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

size_t KvStore::Probe(const Key& key, uint32_t tag) const {
  size_t mask = index_.size() - 1;
  for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
    uint64_t slot = index_[pos];
    if (slot == 0) return pos;
    if (TagOf(slot) == tag && entry(PosOf(slot)).key == key) return pos;
  }
}

const KvStore::Entry* KvStore::Find(const Key& key) const {
  if (index_.empty()) return nullptr;
  uint64_t slot = index_[Probe(key, Tag(key))];
  if (slot == 0) return nullptr;
  return &entry(PosOf(slot));
}

uint32_t KvStore::PrefetchSlot(const Key& key) const {
  uint32_t tag = Tag(key);
  if (!index_.empty()) __builtin_prefetch(&index_[tag & (index_.size() - 1)]);
  return tag;
}

void KvStore::PrefetchEntry(uint32_t tag) const {
  if (index_.empty()) return;
  size_t mask = index_.size() - 1;
  for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
    uint64_t slot = index_[pos];
    if (slot == 0) return;  // absent: Apply will insert, nothing to fetch
    if (TagOf(slot) == tag) {
      // Chunks are only 16-byte aligned, so an entry can straddle one more
      // line than its size needs: fetch every 64th byte and the last one.
      const char* first = reinterpret_cast<const char*>(&entry(PosOf(slot)));
      for (size_t offset = 0; offset < sizeof(Entry); offset += 64) {
        __builtin_prefetch(first + offset);
      }
      __builtin_prefetch(first + sizeof(Entry) - 1);
      return;
    }
  }
}

KvStore::Entry& KvStore::FindOrInsert(const Key& key, uint32_t tag,
                                      bool* inserted) {
  if (index_.empty()) Grow();
  size_t pos = Probe(key, tag);
  *inserted = index_[pos] == 0;
  if (!*inserted) return entry(PosOf(index_[pos]));
  FC_CHECK(size_ < UINT32_MAX) << "KvStore full at " << size_ << " keys";
  if (2 * (uint64_t{size_} + 1) > index_.size()) {
    Grow();
    pos = Probe(key, tag);
  }
  if (size_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
  }
  index_[pos] = Slot(tag, size_);
  Entry& e = entry(size_++);
  e.key = key;
  return e;
}

void KvStore::Grow() {
  std::vector<uint64_t> grown(index_.empty() ? 16 : 2 * index_.size(), 0);
  size_t mask = grown.size() - 1;
  for (uint64_t slot : index_) {
    if (slot == 0) continue;
    size_t pos = TagOf(slot) & mask;
    while (grown[pos] != 0) pos = (pos + 1) & mask;
    grown[pos] = slot;
  }
  index_ = std::move(grown);
}

std::optional<Value> KvStore::Get(const Key& key) const {
  const Entry* e = Find(key);
  if (e == nullptr) return std::nullopt;
  return e->head.value;
}

std::optional<Value> KvStore::GetAtSnapshot(const Key& key,
                                            int64_t snapshot_csn) const {
  const Value* value = FindAtSnapshot(key, snapshot_csn);
  if (value == nullptr) return std::nullopt;
  return *value;
}

const Value* KvStore::FindAtSnapshot(const Key& key,
                                     int64_t snapshot_csn) const {
  const Entry* e = Find(key);
  if (e == nullptr) return nullptr;
  if (e->head.csn <= snapshot_csn) return &e->head.value;
  // Older versions are few (pruned to the GC watermark), so a backward
  // scan beats a binary search in practice.
  for (auto v = e->older.rbegin(); v != e->older.rend(); ++v) {
    if (v->csn <= snapshot_csn) return &v->value;
  }
  return nullptr;  // key born after the snapshot
}

void KvStore::Put(const Key& key, Value value) {
  bool inserted;
  Entry& e = FindOrInsert(key, Tag(key), &inserted);
  if (inserted) ++total_versions_;
  e.head.value = std::move(value);
}

bool KvStore::Erase(const Key& key) {
  if (index_.empty()) return false;
  size_t hole = Probe(key, Tag(key));
  if (index_[hole] == 0) return false;
  uint32_t pos = PosOf(index_[hole]);
  // Backward-shift deletion: every later slot of the cluster whose home is
  // at or before the hole moves back into it, so no probe sequence meets
  // an empty slot before its key.
  size_t mask = index_.size() - 1;
  for (size_t j = (hole + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    size_t home = TagOf(index_[j]) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;

  Entry& gone = entry(pos);
  total_versions_ -= static_cast<int64_t>(gone.older.size()) + 1;
  uint32_t last = size_ - 1;
  if (pos != last) {
    // Keep entries dense: the last one moves into the freed position and
    // its slot is re-pointed.
    Entry& moved = entry(last);
    size_t slot = Tag(moved.key) & mask;
    while (PosOf(index_[slot]) != last) slot = (slot + 1) & mask;
    index_[slot] = Slot(TagOf(index_[slot]), pos);
    gone = std::move(moved);
  }
  entry(last) = Entry{};
  size_ = last;
  if (size_ % kChunkSize == 0) chunks_.pop_back();  // last chunk now unused
  return true;
}

void KvStore::Apply(const Op& op, uint32_t tag, int64_t csn,
                    int64_t gc_watermark) {
  if (op.type == Op::Type::kGet) return;  // reads mutate nothing
  // One probe: the kAdd base and the write both come from this entry.
  bool inserted;
  Entry& e = FindOrInsert(op.key, tag, &inserted);
  Value value;
  if (op.type == Op::Type::kPut) {
    value = op.value;
  } else {
    value = std::to_string(ParseInt(e.head.value) + op.delta);
  }
  if (inserted) {
    e.head.csn = csn;
    ++total_versions_;
  } else if (e.head.csn >= csn) {
    // Same-commit second op, or a non-transactional head overwrite: the
    // chain gains no version and CSN order stays strict.
  } else if (gc_watermark < csn) {
    e.older.push_back(std::move(e.head));
    e.head.csn = csn;
    ++total_versions_;
  } else {
    // The new version is the watermark base, so no reader can reach any
    // older one: overwrite the head and drop the rest, leaving exactly
    // what appending and pruning would.
    total_versions_ -= static_cast<int64_t>(e.older.size());
    e.older.clear();
    e.head.csn = csn;
  }
  e.head.value = std::move(value);
  if (gc_watermark > 0) total_versions_ -= PruneEntry(e, gc_watermark);
}

int64_t KvStore::AddInt(const Key& key, int64_t delta) {
  int64_t next = GetInt(key) + delta;
  Put(key, std::to_string(next));
  return next;
}

int64_t KvStore::GetInt(const Key& key) const {
  const Entry* e = Find(key);
  return e == nullptr ? 0 : ParseInt(e->head.value);
}

int64_t KvStore::GetIntAtSnapshot(const Key& key, int64_t snapshot_csn) const {
  std::optional<Value> value = GetAtSnapshot(key, snapshot_csn);
  return value.has_value() ? ParseInt(*value) : 0;
}

int64_t KvStore::versions(const Key& key) const {
  const Entry* e = Find(key);
  return e == nullptr ? 0 : static_cast<int64_t>(e->older.size()) + 1;
}

int64_t KvStore::PruneEntry(Entry& e, int64_t watermark) {
  // Keep the newest version with csn <= watermark (the base every snapshot
  // at or above the watermark resolves to) and everything newer. Versions
  // strictly older than that base are invisible to all live and future
  // readers — the watermark is the minimum CSN any of them can hold. The
  // chain is older + [head], so a head at or below the watermark is the
  // base and drops every older version.
  size_t base = e.older.size();
  if (e.head.csn > watermark) {
    base = 0;
    for (size_t i = e.older.size(); i-- > 0;) {
      if (e.older[i].csn <= watermark) {
        base = i;
        break;
      }
    }
  }
  if (base == 0) return 0;
  e.older.erase(e.older.begin(),
                e.older.begin() + static_cast<ptrdiff_t>(base));
  return static_cast<int64_t>(base);
}

int64_t KvStore::Truncate(int64_t watermark) {
  int64_t dropped = 0;
  for (uint32_t pos = 0; pos < size_; ++pos) {
    dropped += PruneEntry(entry(pos), watermark);
  }
  total_versions_ -= dropped;
  return dropped;
}

int64_t KvStore::SumInts() const {
  int64_t sum = 0;
  for (uint32_t pos = 0; pos < size_; ++pos) {
    sum += ParseInt(entry(pos).head.value);
  }
  return sum;
}

void KvStore::CheckInvariants() const {
  FC_CHECK(chunks_.size() == (size_t{size_} + kChunkSize - 1) / kChunkSize)
      << chunks_.size() << " chunks for " << size_ << " entries";
  FC_CHECK(2 * size_t{size_} <= index_.size())
      << "index of " << index_.size() << " slots over " << size_
      << " entries";
  int64_t counted = 0;
  for (uint32_t pos = 0; pos < size_; ++pos) {
    const Entry& e = entry(pos);
    counted += static_cast<int64_t>(e.older.size()) + 1;
    for (size_t i = 0; i < e.older.size(); ++i) {
      int64_t next = i + 1 < e.older.size() ? e.older[i + 1].csn : e.head.csn;
      FC_CHECK(e.older[i].csn < next)
          << "version chain of '" << e.key
          << "' not strictly increasing: csn " << e.older[i].csn << " then "
          << next;
    }
    FC_CHECK(PosOf(index_[Probe(e.key, Tag(e.key))]) == pos)
        << "entry " << pos << " ('" << e.key
        << "') not found through the index at its own position";
  }
  size_t occupied = static_cast<size_t>(
      std::count_if(index_.begin(), index_.end(),
                    [](uint64_t slot) { return slot != 0; }));
  FC_CHECK(occupied == size_)
      << "index holds " << occupied << " keys, store " << size_;
  FC_CHECK(counted == total_versions_)
      << "version counter " << total_versions_ << " != chains total "
      << counted;
}

}  // namespace fastcommit::db
