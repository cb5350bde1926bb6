// Shared helpers for the DAMOCLES/BluePrint test suite.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "engine/project_server.hpp"
#include "workload/edtc.hpp"

namespace damocles::testutil {

/// A project server with the EDTC blueprint installed.
inline std::unique_ptr<engine::ProjectServer> MakeEdtcServer(
    engine::ServerOptions options = {}) {
  auto server = std::make_unique<engine::ProjectServer>("edtc", options);
  server->InitializeBlueprint(workload::EdtcBlueprintText());
  return server;
}

/// Property value or "" when absent.
inline std::string Prop(const engine::ProjectServer& server,
                        const metadb::Oid& oid, const std::string& name) {
  const auto id = server.database().FindObject(oid);
  if (!id.has_value()) return "<no such oid>";
  const std::string* value = server.database().GetProperty(*id, name);
  return value == nullptr ? std::string() : *value;
}

/// Property of the latest version of (block, view), or "".
inline std::string LatestProp(const engine::ProjectServer& server,
                              const std::string& block,
                              const std::string& view,
                              const std::string& name) {
  const auto id = server.database().FindLatest(block, view);
  if (!id.has_value()) return "<no version>";
  const std::string* value = server.database().GetProperty(*id, name);
  return value == nullptr ? std::string() : *value;
}

/// An object's properties as name -> value text. Symbol ids are per
/// database, so objects of two databases compare through this.
inline std::map<std::string, std::string> PropertyTexts(
    const metadb::MetaDatabase& db, metadb::OidId id) {
  std::map<std::string, std::string> texts;
  for (const metadb::Property& property : db.GetObject(id).properties) {
    texts.emplace(db.SymbolText(property.name), property.value);
  }
  return texts;
}

}  // namespace damocles::testutil
