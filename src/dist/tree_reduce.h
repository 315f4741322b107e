#ifndef DISTSKETCH_DIST_TREE_REDUCE_H_
#define DISTSKETCH_DIST_TREE_REDUCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/merge_topology.h"
#include "dist/protocol.h"
#include "wire/message.h"

namespace distsketch {

/// Protocol-specific pieces of a topology-driven reduction. The driver
/// owns scheduling, transfers, loss accounting and re-parenting; the
/// hooks own the sketch math (what "merge" means).
struct TreeReduceHooks {
  /// Folds one delivered uplink payload into `node`'s accumulator
  /// (`node == kCoordinator` for the final merge). Called on the thread
  /// pool for distinct server nodes concurrently — implementations may
  /// mutate only node-local state — and on the caller thread for the
  /// coordinator, in deterministic arrival order.
  std::function<Status(int node, const std::vector<uint8_t>& payload)>
      absorb;
  /// Builds `node`'s uplink message from its accumulator (local input
  /// plus everything absorbed so far). Called on the thread pool, once
  /// per node and after the node's last absorb, so it may release the
  /// accumulator.
  std::function<StatusOr<wire::Message>(int node)> make_message;
  /// `node`'s own local Frobenius mass — the degraded-mode accounting
  /// unit. When set and the cluster is in fault mode, every node reports
  /// it to the coordinator before any uplink; when unset no report is
  /// sent, and a lost node's mass is recorded unknown.
  std::function<double(int node)> local_mass;
  /// Optional, caller thread, once per node before any send: true iff
  /// the coordinator already holds `node`'s contribution (a restored
  /// checkpoint). Such a node sends nothing — no mass report, no uplink.
  /// Only leaves may be skipped.
  std::function<bool(int node)> already_absorbed;
  /// Optional, caller thread: called once each coordinator-bound uplink
  /// of the send schedule is settled, delivered or lost. Returning false
  /// stops the run there (RunTreeReduce returns OK; later nodes send
  /// nothing).
  std::function<StatusOr<bool>(int node, bool delivered)> root_settled;
};

/// The local_mass hook of a row partition: ||A^(i)||_F^2 of the node's
/// local rows.
std::function<double(int node)> LocalRowMass(const Cluster& cluster);

/// Runs one reduction over the topology: stage by stage, every live node
/// absorbs its received payloads and builds its uplink on the thread
/// pool (per-node isolation keeps the result bit-identical at any
/// DS_THREADS), then sends serially in ascending node order — so the
/// wire transcript is a pure function of (data, topology, fault plan).
/// The paper's star is the one-stage topology; every merge protocol and
/// topology goes through here.
///
/// Fault handling: a node whose own channel is exhausted is recorded
/// lost (its local rows are the only unrecoverable contribution), and
/// every uplink it had already absorbed is retransmitted by its original
/// sender to the node's nearest live ancestor — recursively, so an
/// arbitrary set of interior deaths degrades the result by exactly the
/// lost nodes' local masses. In fault mode each node first reports its
/// 1-word local mass straight to the coordinator, all in id order before
/// any uplink, so a node that dies later widens the bound by a known
/// amount.
Status RunTreeReduce(Cluster& cluster, const MergeTopology& topology,
                     const TreeReduceHooks& hooks,
                     DegradedModeInfo& degraded);

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_TREE_REDUCE_H_
