#include "serve/admin.hpp"

#include <string>
#include <vector>

#include "log/log.hpp"
#include "serve/protocol.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::serve {

namespace {

std::string http_response(int status, const char* reason,
                          const char* content_type, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string statusz_json(const SessionRegistry& sessions) {
  std::string out = "{\"ok\": true,\"server_version\": \"";
  append_json_escaped(out, kServerVersion);
  out += "\",\"wire_version\": " + std::to_string(kWireVersion);
  out += ",\"uptime_s\": ";
  append_json_number(out, process_uptime_s());
  out += ",\"build\": {\"telemetry\": ";
  out += telemetry::enabled() ? "true" : "false";
  out += ",\"log_min_level\": " + std::to_string(BMFUSION_LOG_MIN_LEVEL);
  out += "},\"sessions\": [";
  const std::vector<SessionSummary> summaries = sessions.summaries();
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const SessionSummary& s = summaries[i];
    out += i ? ",{\"id\": \"" : "{\"id\": \"";
    append_json_escaped(out, s.id);
    out += "\",\"estimator\": \"";
    append_json_escaped(out, s.estimator);
    out += "\",\"populations\": " + std::to_string(s.populations);
    out += ",\"observed\": " + std::to_string(s.observed) + "}";
  }
  out += "]";
  // Fusion health (tau^2 / shrinkage / per-population sample gauges) gets
  // its own section so dashboards need not know the gauge naming scheme.
  const telemetry::MetricsSnapshot snapshot =
      telemetry::Registry::instance().snapshot();
  out += ",\"fusion\": {";
  bool first = true;
  for (const auto& g : snapshot.gauges) {
    if (g.name.rfind("fusion.", 0) != 0) continue;
    out += first ? "\"" : ",\"";
    append_json_escaped(out, g.name);
    out += "\": ";
    append_json_number(out, g.value);
    first = false;
  }
  out += "},\"metrics\": " + telemetry::json_snapshot_compact(snapshot) + "}";
  return out;
}

std::string handle_admin_request(std::string_view method,
                                 std::string_view path,
                                 const SessionRegistry& sessions) {
  BMF_COUNTER_ADD("serve.admin.requests", 1);
  if (method != "GET") {
    return http_response(405, "Method Not Allowed", "text/plain",
                         "only GET is supported\n");
  }
  if (path == "/metrics") {
    return http_response(200, "OK", "text/plain; version=0.0.4",
                         telemetry::prometheus_text());
  }
  if (path == "/metrics.json") {
    return http_response(200, "OK", "application/json",
                         telemetry::json_snapshot_compact() + "\n");
  }
  if (path == "/healthz") {
    return http_response(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/statusz") {
    return http_response(200, "OK", "application/json",
                         statusz_json(sessions) + "\n");
  }
  return http_response(
      404, "Not Found", "text/plain",
      "unknown path (try /metrics, /metrics.json, /healthz, /statusz)\n");
}

}  // namespace bmfusion::serve
