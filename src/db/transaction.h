#ifndef FASTCOMMIT_DB_TRANSACTION_H_
#define FASTCOMMIT_DB_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fastcommit::db {

using Key = std::string;
using Value = std::string;
using TxId = int64_t;

/// Execution-layer concurrency control (Database::Options::concurrency).
/// The commit protocols only consume votes, so the mode changes how a
/// partition arrives at its vote — never how the vote is decided on. Both
/// modes lock writes exclusively in one no-wait lock table
/// (db/lock_manager.h); they differ only in what a read does there.
enum class ConcurrencyMode : uint8_t {
  k2PL,  ///< reads take shared locks, held until Finish
  kOCC,  ///< reads take no lock and validate against in-flight writers
};

/// One operation in a transaction. kAdd treats the value as a signed
/// 64-bit integer delta (the bank-transfer primitive); missing keys read
/// as 0 for kAdd and as absent for kGet.
struct Op {
  enum class Type : uint8_t { kGet, kPut, kAdd };

  Type type = Type::kGet;
  Key key;
  Value value;     ///< kPut payload
  int64_t delta = 0;  ///< kAdd payload
};

/// A distributed transaction: a flat list of operations, partitioned by key
/// at execution time. Helios-style execution (paper Section 1): each
/// partition votes no if the transaction conflicts locally.
struct Transaction {
  TxId id = 0;
  std::vector<Op> ops;

  static Op Get(Key key) { return Op{Op::Type::kGet, std::move(key), {}, 0}; }
  static Op Put(Key key, Value value) {
    return Op{Op::Type::kPut, std::move(key), std::move(value), 0};
  }
  static Op Add(Key key, int64_t delta) {
    return Op{Op::Type::kAdd, std::move(key), {}, delta};
  }
};

/// True when every op is a kGet — the transactions the snapshot read plane
/// (Database::Options::snapshot_reads) serves without locks, votes, or
/// protocol messages. Both concurrency modes share the predicate.
inline bool IsReadOnly(const Transaction& tx) {
  for (const Op& op : tx.ops) {
    if (op.type != Op::Type::kGet) return false;
  }
  return true;
}

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_TRANSACTION_H_
