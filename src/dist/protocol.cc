#include "dist/protocol.h"

#include <string>
#include <utility>

namespace distsketch {

Status RequireRowPartition(const Cluster& cluster, std::string_view protocol) {
  if (!cluster.additive()) return Status::OK();
  return Status::FailedPrecondition(
      std::string(protocol) +
      ": needs a row partition; only countsketch is linear in A and runs "
      "on an additive cluster");
}

bool ReportLocalMass(Cluster& cluster, int server, double mass,
                     DegradedModeInfo& degraded) {
  SendOutcome sent = cluster.Send(server, kCoordinator,
                                  wire::ScalarMessage("local_mass", mass));
  if (!sent.delivered) {
    degraded.RecordLoss(server, mass, false);
    return false;
  }
  return true;
}

ServerSendResult SendWithMassAccounting(Cluster& cluster, int from, int to,
                                        const wire::Message& msg,
                                        DegradedModeInfo& degraded,
                                        double mass, bool mass_known_if_lost) {
  const int server = from == kCoordinator ? to : from;
  ServerSendResult result;
  SendOutcome sent = cluster.Send(from, to, msg);
  if (!sent.delivered) {
    degraded.RecordLoss(server, mass, mass_known_if_lost);
    return result;
  }
  result.delivered = true;
  result.payload = std::move(sent.payload);
  return result;
}

}  // namespace distsketch
