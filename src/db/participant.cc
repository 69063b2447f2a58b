#include "db/participant.h"

#include "core/check.h"

namespace fastcommit::db {

commit::Vote Participant::Prepare(TxId tx, const std::vector<Op>& local_ops) {
  ++prepares_;
  for (const Op& op : local_ops) {
    bool ok;
    if (op.type != Op::Type::kGet) {
      ok = locks_.TryLockExclusive(op.key, tx);
    } else if (mode_ == ConcurrencyMode::k2PL) {
      ok = locks_.TryLockShared(op.key, tx);
    } else {
      // OCC read: a lookup that creates no entry, so pure readers leave no
      // footprint for anyone to conflict with. The partition FIFO drains
      // this whole Prepare serially, so no commit can publish between the
      // read and its validation: the only read that can fail is one of a
      // key another in-flight transaction holds exclusively — its own
      // read-modify-write key validates fine.
      TxId writer = locks_.ExclusiveOwner(op.key);
      ok = writer < 0 || writer == tx;
    }
    if (!ok) {
      ++conflicts_;
      locks_.ReleaseAll(tx);
      return commit::Vote::kNo;
    }
  }
  StageWrites(tx, local_ops);
  return commit::Vote::kYes;
}

void Participant::StageWrites(TxId tx, const std::vector<Op>& local_ops) {
  // Stage only the write ops: reads apply nothing, so staging them would
  // just grow the table — and with batched rounds a staged entry can wait
  // out a whole batching window, not just one protocol run. Read-only op
  // sets never touch the table at all.
  bool has_writes = false;
  for (const Op& op : local_ops) {
    if (op.type != Op::Type::kGet) {
      has_writes = true;
      break;
    }
  }
  if (!has_writes) return;
  std::vector<Op>& staged = staged_[tx];
  staged.clear();
  for (const Op& op : local_ops) {
    if (op.type != Op::Type::kGet) staged.push_back(op);
  }
}

void Participant::Finish(TxId tx, commit::Decision decision, int64_t csn,
                         int64_t gc_watermark) {
  // Read-only transactions under OCC (and transactions never prepared
  // here, or already finished — batching's doomed-member early release
  // finishes twice) have no staged entry and hold no locks.
  auto it = staged_.find(tx);
  if (it != staged_.end()) {
    if (decision == commit::Decision::kCommit) {
      for (const Op& op : it->second) store_.Apply(op, csn, gc_watermark);
    }
    staged_.erase(it);
  }
  locks_.ReleaseAll(tx);
}

void Participant::ReadAtSnapshot(int64_t snapshot_csn,
                                 const std::vector<Op>& local_ops,
                                 std::vector<Value>* out) const {
  for (const Op& op : local_ops) {
    if (op.type != Op::Type::kGet) continue;
    // One copy per read: straight from the stored version into `out`.
    const Value* value = store_.FindAtSnapshot(op.key, snapshot_csn);
    if (value != nullptr) {
      out->push_back(*value);
    } else {
      out->emplace_back();
    }
  }
}

void Participant::CheckInvariants() const {
  store_.CheckInvariants();
  locks_.CheckInvariants();
  for (const auto& [tx, ops] : staged_) {
    FC_CHECK(!ops.empty())
        << "partition " << partition_id_ << ": empty staged entry for tx "
        << tx << " (read-only op sets must not stage)";
    for (const Op& op : ops) {
      FC_CHECK(op.type != Op::Type::kGet)
          << "partition " << partition_id_ << ": read op staged for tx "
          << tx;
      FC_CHECK(locks_.HoldsExclusive(op.key, tx))
          << "partition " << partition_id_ << ": tx " << tx
          << " staged a write to '" << op.key
          << "' without holding its exclusive lock";
    }
  }
  // The other direction: no exclusive lock survives a flush barrier
  // without a live owner — a staged write that Finish will apply or drop.
  // An orphaned lock would wedge every later writer of the key. (Shared
  // locks are 2PL reads, which stage nothing.)
  locks_.ForEachHeldKey([this](const Key& key, TxId owner) {
    if (!locks_.HoldsExclusive(key, owner)) return;
    auto staged = staged_.find(owner);
    bool live = false;
    if (staged != staged_.end()) {
      for (const Op& op : staged->second) {
        if (op.key == key) {
          live = true;
          break;
        }
      }
    }
    FC_CHECK(live) << "partition " << partition_id_ << ": exclusive lock on '"
                   << key << "' owned by tx " << owner
                   << " with no staged write";
  });
}

}  // namespace fastcommit::db
