#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "real_run.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Busy time and work counts of each layer, measured by replaying the
/// workload's own inputs through that layer's public functions in
/// isolation. The replays are serial and uncontended: every prepare votes
/// yes and every round commits, so they time each layer's own code, not
/// the waiting or interference of the real run.
struct LayerCosts {
  /// db::TrafficEngine::Next over the whole arrival stream.
  LayerTimer traffic;
  /// db::Participant calls on partitions routed by Database::PartitionOf.
  LayerTimer prepare;
  LayerTimer finish;
  LayerTimer snapshot_read;
  /// One pooled db::CommitInstance round (Acquire, Start, the simulator
  /// Run to quiescence, Release) per multi-partition write transaction.
  LayerTimer commit_round;
  int64_t commit_events = 0;
  int64_t commit_messages = 0;
  /// sim::Simulator ScheduleAt/Run of the commit rounds' event counts
  /// with empty handlers: the event kernel alone.
  LayerTimer kernel;
  int64_t kernel_events = 0;
  /// db::PartitionPlane Enqueue*/Flush over the whole stream on a
  /// sim::ShardedSimulator at the workload's placement; one call per
  /// transaction.
  LayerTimer plane;
  int64_t plane_flushes = 0;
};

/// Runs every layer replay for `workload`, recording one span per replay
/// and, under it, one aggregate span per replayed operation.
/// `real` is the traced real run, whose flush count sets the plane
/// replay's barrier cadence under conflict lookahead. Any replay that
/// deviates from the serial outcome (a no vote, a round that does not
/// commit) is appended to `violations`.
LayerCosts ReplayLayers(const Workload& workload, const RunSample& real,
                        SpanLog* spans, std::vector<std::string>* violations);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
