#include "metrics/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "metrics/metrics.hpp"

// Build provenance is injected by CMake as compile definitions on the
// library target; fall back to "unknown" so the file also compiles outside
// the repo's own build (e.g. if vendored).
#ifndef CIRCLES_GIT_DESCRIBE
#define CIRCLES_GIT_DESCRIBE "unknown"
#endif
#ifndef CIRCLES_BUILD_TYPE
#define CIRCLES_BUILD_TYPE "unknown"
#endif
#ifndef CIRCLES_COMPILER
#define CIRCLES_COMPILER "unknown"
#endif

namespace circles::metrics {
namespace {

std::string detect_hostname() {
#if !defined(_WIN32)
  char buf[256] = {0};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  if (const char* env = std::getenv("HOSTNAME")) return env;
  if (const char* env = std::getenv("COMPUTERNAME")) return env;
  return "unknown";
}

}  // namespace

std::string utc_timestamp_now() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char buf[64];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec);
  return buf;
}

RunManifest RunManifest::collect() {
  RunManifest manifest;
  manifest.git_describe = CIRCLES_GIT_DESCRIBE;
  manifest.build_type = CIRCLES_BUILD_TYPE;
  manifest.compiler = CIRCLES_COMPILER;
  manifest.hostname = detect_hostname();
  manifest.started_utc = utc_timestamp_now();
  return manifest;
}

std::string RunManifest::to_json() const {
  std::string out = "{";
  const auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ",";
    out += "\"";
    out += key;
    out += "\":\"" + json_escape(value) + "\"";
  };
  field("spec", spec);
  field("backend", backend);
  if (!auto_reason.empty()) field("auto_reason", auto_reason);
  field("kernel", kernel);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"trials\":" + std::to_string(trials);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"utilization\":" + json_number(utilization);
  field("git_describe", git_describe);
  field("build_type", build_type);
  field("compiler", compiler);
  field("hostname", hostname);
  field("started_utc", started_utc);
  field("finished_utc", finished_utc);
  out += ",\"wall_ms\":" + json_number(wall_ms);
  out += "}";
  return out;
}

void RunManifest::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("manifest: cannot open " + path);
  file << to_json() << "\n";
  if (!file) throw std::runtime_error("manifest: write failed for " + path);
}

}  // namespace circles::metrics
