#include "workloads.h"

#include <sstream>

namespace perfbench {
namespace {

using fastcommit::core::ProtocolKind;
using fastcommit::db::ArrivalProcess;
using fastcommit::db::ConcurrencyMode;
using fastcommit::db::CrashPoint;
using fastcommit::db::TxShape;

// Arrivals per run. Sized so one drain takes roughly a second on a
// 4-core x86 host, which leaves room for several repeats per run.
constexpr int64_t kOltpArrivals = 100000;
constexpr int64_t kGeoArrivals = 200000;
constexpr int64_t kReadmixArrivals = 100000;

/// 2-key transfers, uniform over a million preloaded keys (a working set
/// well beyond the last-level cache), committed by pooled InBAC instances
/// under no-wait 2PL with no batching.
void Oltp(Workload* w) {
  w->options.protocol = ProtocolKind::kInbac;
  w->options.concurrency = ConcurrencyMode::k2PL;
  w->traffic.process = ArrivalProcess::kPoisson;
  w->traffic.mean_gap = 40.0;
  w->traffic.shape = TxShape::kTransferPair;
  w->traffic.num_keys = 1 << 20;
  w->traffic.num_arrivals = kOltpArrivals;
  w->preload_keys = w->traffic.num_keys;
}

/// Bursty 2-key read-modify-writes over a Zipf hot set that drifts, in a
/// 3-region deployment with co-coordinators, adaptive batching (cross-set
/// admission + round merge), a 3-replica commit log and one planned
/// coordinator crash after the log accept.
void Geo(Workload* w) {
  w->options.protocol = ProtocolKind::kInbac;
  w->options.num_regions = 3;
  w->options.cross_region_units_min = 30;
  w->options.cross_region_units_max = 30;
  w->options.geo_co_coordinators = true;
  w->options.batch_window = 100;
  w->options.batch_adaptive = true;
  w->options.batch_window_max = 800;
  w->options.batch_cross_set = true;
  w->options.batch_round_merge = true;
  w->options.log_replicas = 3;
  w->options.fault_plan.crash_point = CrashPoint::kAfterAccept;
  w->options.fault_plan.crash_at_occurrence = kGeoArrivals / 20;
  w->options.fault_plan.coordinator_restart_delay = 6000;
  w->traffic.process = ArrivalProcess::kBursty;
  w->traffic.mean_gap = 20.0;
  w->traffic.shape = TxShape::kReadModifyWrite;
  w->traffic.keys_per_tx = 2;
  w->traffic.num_keys = 1 << 20;
  w->traffic.zipf_exponent = 0.7;
  w->traffic.drift_period = 1000;
  w->traffic.num_arrivals = kGeoArrivals;
  w->preload_keys = w->traffic.num_keys;
  w->conserves_sum = false;
  w->options.max_attempts = 64;
}

/// Diurnal arrivals, 90% read-only (8 kGets) beside 10% transfers, Zipf
/// 0.99 with fast drift over a key space that fits in cache; PaxosCommit,
/// OCC, snapshot reads and conflict lookahead.
void Readmix(Workload* w) {
  w->options.protocol = ProtocolKind::kPaxosCommit;
  w->options.concurrency = ConcurrencyMode::kOCC;
  w->options.snapshot_reads = true;
  w->options.conflict_lookahead = true;
  w->traffic.process = ArrivalProcess::kDiurnal;
  w->traffic.mean_gap = 10.0;
  w->traffic.num_arrivals = kReadmixArrivals;
  // About nine ramp cycles per run.
  w->traffic.diurnal_period =
      static_cast<int64_t>(w->traffic.mean_gap) * kReadmixArrivals / 9;
  w->traffic.shape = TxShape::kTransferPair;
  w->traffic.read_fraction = 0.9;
  w->traffic.reads_per_tx = 8;
  w->traffic.num_keys = 1 << 16;
  w->traffic.zipf_exponent = 0.99;
  w->traffic.drift_period = 100;
  w->preload_keys = w->traffic.num_keys;
  w->options.max_attempts = 10;
}

const char* ModeName(ConcurrencyMode mode) {
  return mode == ConcurrencyMode::kOCC ? "occ" : "2pl";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "oltp-transfer", "geo-hotspot", "readmix-snapshot"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.options.num_partitions = 8;
  if (name == "oltp-transfer") {
    Oltp(&w);
  } else if (name == "geo-hotspot") {
    Geo(&w);
  } else if (name == "readmix-snapshot") {
    Readmix(&w);
  } else {
    return false;
  }
  w.options.seed = seed;
  w.traffic.seed = seed;
  *out = std::move(w);
  return true;
}

std::string Describe(const Workload& w) {
  const auto& o = w.options;
  const auto& t = w.traffic;
  std::ostringstream s;
  s << w.name << ": partitions=" << o.num_partitions
    << " protocol=" << fastcommit::core::ProtocolName(o.protocol)
    << " cc=" << ModeName(o.concurrency) << " shards=" << o.num_shards
    << " threads=" << o.num_threads << " seed=" << o.seed
    << " arrivals=" << t.num_arrivals << " process=" << ToString(t.process)
    << " mean_gap=" << t.mean_gap << " shape=" << ToString(t.shape)
    << " keys=" << t.num_keys << " preload=" << w.preload_keys
    << " zipf=" << t.zipf_exponent << " drift=" << t.drift_period
    << " read_fraction=" << t.read_fraction;
  if (t.read_fraction > 0) s << " reads_per_tx=" << t.reads_per_tx;
  if (t.shape == TxShape::kReadModifyWrite) {
    s << " keys_per_tx=" << t.keys_per_tx;
  }
  if (t.process == ArrivalProcess::kBursty) {
    s << " burst_size=" << t.burst_size
      << " burst_gap_scale=" << t.burst_gap_scale;
  }
  if (t.process == ArrivalProcess::kDiurnal) {
    s << " diurnal_period=" << t.diurnal_period
      << " amplitude=" << t.diurnal_amplitude;
  }
  if (o.batch_window > 0 || o.batch_adaptive) {
    s << " batch_window=" << o.batch_window
      << " adaptive=" << o.batch_adaptive
      << " window_max=" << o.batch_window_max
      << " cross_set=" << o.batch_cross_set
      << " round_merge=" << o.batch_round_merge;
  }
  if (o.num_regions > 1) {
    s << " regions=" << o.num_regions
      << " cross_units=" << o.cross_region_units_min << "-"
      << o.cross_region_units_max
      << " co_coordinators=" << o.geo_co_coordinators;
  }
  if (o.log_replicas > 0) s << " log_replicas=" << o.log_replicas;
  if (o.fault_plan.HasCoordinatorCrash()) {
    s << " crash=" << ToString(o.fault_plan.crash_point) << "@"
      << o.fault_plan.crash_at_occurrence
      << " restart_delay=" << o.fault_plan.coordinator_restart_delay;
  }
  if (o.snapshot_reads) s << " snapshot_reads=1";
  if (o.conflict_lookahead) s << " conflict_lookahead=1";
  s << " max_attempts=" << o.max_attempts
    << " max_inflight=" << o.max_inflight;
  return s.str();
}

}  // namespace perfbench
