#include "query/report.hpp"

#include <algorithm>
#include <cstdio>

namespace damocles::query {

ProjectReport BuildProjectReport(const metadb::Snapshot& snapshot) {
  const metadb::MetaDatabase& db = snapshot.db();
  ProjectQuery query(snapshot);
  ProjectReport report;

  for (const Match& match : query.LatestVersions(nullptr)) {
    const metadb::MetaObject& object = db.GetObject(match.id);
    ReportRow row;
    row.oid = match.oid;
    row.state = db.PropertyOr(object, "state", "");
    row.uptodate = db.PropertyOr(object, "uptodate", "");
    row.property_count = object.properties.size();
    row.out_links = db.OutLinks(match.id).size();
    row.in_links = db.InLinks(match.id).size();
    if (row.uptodate == "false") ++report.out_of_date;
    if (row.state == "true") ++report.state_ok;
    ++report.total;
    report.rows.push_back(std::move(row));
  }
  return report;
}

ProjectReport BuildProjectReport(const metadb::MetaDatabase& db) {
  return BuildProjectReport(metadb::Snapshot::Live(db));
}

std::string FormatProjectReport(const ProjectReport& report) {
  std::string out;
  out += "OID                                      state  uptodate  props  "
         "links(out/in)\n";
  out += "---------------------------------------- -----  --------  -----  "
         "-------------\n";
  char buffer[160];
  for (const ReportRow& row : report.rows) {
    std::snprintf(buffer, sizeof(buffer),
                  "%-40s %-6s %-9s %5zu  %zu/%zu\n",
                  metadb::FormatOid(row.oid).c_str(),
                  row.state.empty() ? "-" : row.state.c_str(),
                  row.uptodate.empty() ? "-" : row.uptodate.c_str(),
                  row.property_count, row.out_links, row.in_links);
    out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer),
                "total %zu  state-ok %zu  out-of-date %zu\n", report.total,
                report.state_ok, report.out_of_date);
  out += buffer;
  return out;
}

std::string FormatShadowWaveReport(const policy::ShadowWaveReport& report) {
  std::string out;
  out += "shadow-wave version " + std::to_string(report.version_id) +
         " event '" + report.event + "' " +
         events::DirectionName(report.direction) + " from " +
         metadb::FormatOid(report.start) + " depth-cap " +
         std::to_string(report.depth_cap) + "\n";
  for (const policy::ShadowWavePath& path : report.paths) {
    out += "  ";
    out += path.direct ? "DIRECT    " : "TRANSITIVE";
    out += " depth " + std::to_string(path.depth) + " " +
           metadb::FormatOid(path.target) + " rules " +
           std::to_string(path.matched_rules) + " via";
    for (const metadb::Oid& hop : path.chain) {
      out += " " + metadb::FormatOidWire(hop);
    }
    out += "\n";
  }
  out += "impacted " + std::to_string(report.paths.size()) + "  direct " +
         std::to_string(report.direct_count) + "  transitive " +
         std::to_string(report.transitive_count) +
         (report.truncated ? "  (truncated)" : "") + "\n";
  return out;
}

std::string FormatBlockers(const std::vector<Blocker>& blockers) {
  if (blockers.empty()) return "planned state reached: no blockers\n";
  std::string out = "blockers before planned state:\n";
  for (const Blocker& blocker : blockers) {
    out += "  " + metadb::FormatOid(blocker.oid) + " " + blocker.property +
           " = '" + blocker.actual_value + "' (needs '" +
           blocker.required_value + "')\n";
  }
  return out;
}

}  // namespace damocles::query
