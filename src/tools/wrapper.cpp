#include "tools/wrapper.hpp"

#include "events/wire.hpp"

namespace damocles::tools {

PermissionDecision RequestPermission(
    const engine::ProjectServer& server, const std::string& block,
    const std::string& view,
    const std::vector<InputRequirement>& requirements) {
  const metadb::MetaDatabase& db = server.database();
  const auto id = db.FindLatest(block, view);
  if (!id.has_value()) {
    return PermissionDecision{false,
                              "no version of " + block + "." + view + " exists"};
  }
  const metadb::MetaObject& object = db.GetObject(*id);
  for (const InputRequirement& requirement : requirements) {
    const std::string actual =
        db.PropertyOr(object, requirement.property, std::string());
    if (actual != requirement.required_value) {
      return PermissionDecision{
          false, metadb::FormatOid(db.OidOf(object)) + ": " + requirement.property +
                     " = '" + actual + "', required '" +
                     requirement.required_value + "'"};
    }
  }
  return PermissionDecision{true, ""};
}

bool WrapperProgram::Gate(const std::string& block, const std::string& view,
                          const std::vector<InputRequirement>& requirements) {
  const PermissionDecision decision =
      RequestPermission(server_, block, view, requirements);
  if (decision.granted) {
    ++runs_;
  } else {
    ++denials_;
  }
  return decision.granted;
}

void WrapperProgram::PostWire(const std::string& event,
                              events::Direction direction,
                              const metadb::Oid& target,
                              const std::string& arg,
                              const std::string& user) {
  events::EventMessage message;
  message.name = event;
  message.direction = direction;
  message.target = target;
  message.arg = arg;
  // Round-trip through the wire codec: the tool layer talks to the
  // server exactly like an external shell script would.
  const std::string line = events::FormatWireEvent(message);
  server_.SubmitWireLine(line, user);
}

}  // namespace damocles::tools
