#include "net/fault_plan.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/random.h"

namespace dfi::net {

void FaultPlan::Append(FaultEvent e) {
  e.seq = events_.size();
  events_.push_back(std::move(e));
  active_ = true;
}

void FaultPlan::CrashNode(NodeId node, SimTime at) {
  FaultEvent e;
  e.at = at;
  e.type = FaultEventType::kNodeCrash;
  e.node = node;
  auto it = crash_time_.find(node);
  if (it == crash_time_.end()) {
    crash_time_[node] = at;
  } else {
    it->second = std::min(it->second, at);
  }
  Append(std::move(e));
}

void FaultPlan::DegradeLink(NodeId node, SimTime at, double gbps) {
  DFI_CHECK_GT(gbps, 0.0);
  FaultEvent e;
  e.at = at;
  e.type = FaultEventType::kLinkDegrade;
  e.node = node;
  e.value = gbps;
  Append(std::move(e));
}

void FaultPlan::RestoreLink(NodeId node, SimTime at) {
  FaultEvent e;
  e.at = at;
  e.type = FaultEventType::kLinkRestore;
  e.node = node;
  Append(std::move(e));
}

void FaultPlan::LossBurst(SimTime from, SimTime until, double probability) {
  DFI_CHECK_GE(probability, 0.0);
  DFI_CHECK_LE(probability, 1.0);
  DFI_CHECK_LT(from, until);
  FaultEvent e;
  e.at = from;
  e.type = FaultEventType::kLossBurst;
  e.value = probability;
  e.until = until;
  if (probability > 0.0) {
    has_loss_bursts_ = true;
  }
  Append(std::move(e));
}

void FaultPlan::Partition(std::vector<NodeId> island, SimTime at) {
  FaultEvent e;
  e.at = at;
  e.type = FaultEventType::kPartition;
  e.island = std::move(island);
  Append(std::move(e));
}

void FaultPlan::Heal(SimTime at) {
  FaultEvent e;
  e.at = at;
  e.type = FaultEventType::kHeal;
  Append(std::move(e));
}

bool FaultPlan::NodeAlive(NodeId node, SimTime at) const {
  if (!active()) return true;
  auto it = crash_time_.find(node);
  return it == crash_time_.end() || at < it->second;
}

SimTime FaultPlan::CrashTime(NodeId node) const {
  if (!active()) return kNever;
  auto it = crash_time_.find(node);
  return it == crash_time_.end() ? kNever : it->second;
}

bool FaultPlan::Reachable(NodeId a, NodeId b, SimTime at) const {
  if (a == b) return true;
  if (!active()) return true;
  // Replay partition/heal events up to `at` (plans are short scripts, so a
  // linear replay beats maintaining interval structures).
  bool separated = false;
  for (const FaultEvent& e : events_) {
    if (e.at > at) continue;
    if (e.type == FaultEventType::kHeal) {
      separated = false;
    } else if (e.type == FaultEventType::kPartition) {
      const bool a_in =
          std::find(e.island.begin(), e.island.end(), a) != e.island.end();
      const bool b_in =
          std::find(e.island.begin(), e.island.end(), b) != e.island.end();
      if (a_in != b_in) separated = true;
    }
  }
  return !separated;
}

double FaultPlan::LinkRateFactor(NodeId node, SimTime at,
                                 double base_gbps) const {
  if (!active()) return 1.0;
  // Latest degrade/restore for this node at or before `at` wins.
  double gbps = base_gbps;
  SimTime latest = -1;
  for (const FaultEvent& e : events_) {
    if (e.node != node || e.at > at || e.at < latest) continue;
    if (e.type == FaultEventType::kLinkDegrade) {
      latest = e.at;
      gbps = e.value;
    } else if (e.type == FaultEventType::kLinkRestore) {
      latest = e.at;
      gbps = base_gbps;
    }
  }
  if (gbps >= base_gbps) return 1.0;
  return std::max(gbps / base_gbps, 1e-6);
}

double FaultPlan::LossBoost(SimTime at) const {
  if (!active()) return 0.0;
  double boost = 0.0;
  for (const FaultEvent& e : events_) {
    if (e.type != FaultEventType::kLossBurst) continue;
    if (at >= e.at && at < e.until) boost = std::max(boost, e.value);
  }
  return boost;
}

bool FaultPlan::ShouldDropDelivery(uint64_t key, double probability) const {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  const uint64_t h = SplitMix64(seed_ ^ SplitMix64(key));
  // Map the top 53 bits to [0, 1) — the standard double-from-bits trick.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < probability;
}

std::vector<FaultEvent> FaultPlan::Events() const {
  std::vector<FaultEvent> out = events_;
  std::sort(out.begin(), out.end(), [](const FaultEvent& a,
                                       const FaultEvent& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  return out;
}

std::string FaultPlan::TraceString() const {
  std::ostringstream os;
  for (const FaultEvent& e : Events()) {
    os << "@" << e.at << "ns ";
    switch (e.type) {
      case FaultEventType::kNodeCrash:
        os << "crash node=" << e.node;
        break;
      case FaultEventType::kLinkDegrade:
        os << "degrade node=" << e.node << " gbps=" << e.value;
        break;
      case FaultEventType::kLinkRestore:
        os << "restore node=" << e.node;
        break;
      case FaultEventType::kLossBurst:
        os << "loss-burst p=" << e.value << " until=" << e.until << "ns";
        break;
      case FaultEventType::kPartition: {
        os << "partition island={";
        for (size_t i = 0; i < e.island.size(); ++i) {
          if (i > 0) os << ",";
          os << e.island[i];
        }
        os << "}";
        break;
      }
      case FaultEventType::kHeal:
        os << "heal";
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace dfi::net
