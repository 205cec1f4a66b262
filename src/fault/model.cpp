#include "fault/model.hpp"

namespace frlfi {

std::string to_string(FaultModel m) {
  switch (m) {
    case FaultModel::TransientSingleStep:
      return "Trans-1";
    case FaultModel::TransientPersistent:
      return "Trans-M";
    case FaultModel::StuckAt0:
      return "Stuck-at-0";
    case FaultModel::StuckAt1:
      return "Stuck-at-1";
  }
  return "?";
}

std::string to_string(FaultSite s) {
  switch (s) {
    case FaultSite::AgentFault:
      return "agent";
    case FaultSite::ServerFault:
      return "server";
  }
  return "?";
}

}  // namespace frlfi
