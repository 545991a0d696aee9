#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

#include "src/common.h"

namespace perfbench {

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values_.size())));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::TailQuantile(std::string* label) const {
  static const struct {
    double q;
    const char* name;
  } kTails[] = {{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  for (const auto& tail : kTails) {
    double beyond = (1.0 - tail.q) * static_cast<double>(values_.size());
    if (beyond >= 10.0) {
      *label = tail.name;
      return Quantile(tail.q);
    }
  }
  *label = "p50";
  return Median();
}

void Report::Gate(const std::string& name, double value,
                  const std::string& unit) {
  gated_.push_back({name, Metric{value, unit, 0}});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit, size_t samples) {
  notes_.push_back({name, Metric{value, unit, samples}});
}

void Report::NoteLatency(const std::string& name, const Samples& samples) {
  std::string tail;
  double tail_value = samples.TailQuantile(&tail);
  Note(name + "_p50_us", samples.Median(), "us", samples.count());
  std::string tail_name = tail;
  tail_name.erase(std::remove(tail_name.begin(), tail_name.end(), '.'),
                  tail_name.end());
  Note(name + "_" + tail_name + "_us", tail_value, "us", samples.count());
}

void Report::AddCheck(const std::string& name, bool ok,
                      const std::string& detail) {
  checks_.push_back({name, {ok, detail}});
}

bool Report::correct() const {
  if (failed_ > 0 || attempted_ == 0) return false;
  for (const auto& [name, check] : checks_) {
    if (!check.first) return false;
  }
  return true;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(
    const std::vector<std::pair<std::string, double>>& values,
    const std::vector<std::string>& units) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(values[i].first) + "\": {\"value\": " +
           Number(values[i].second) + ", \"unit\": \"" +
           JsonEscape(units[i]) + "\"}";
  }
  return out + "}";
}

}  // namespace

void Report::Emit(const std::string& results_path) const {
  for (const auto& [key, value] : stamp_) {
    std::printf("stamp %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, check] : checks_) {
    std::printf("check %-34s %s %s\n", name.c_str(),
                check.first ? "ok" : "FAILED", check.second.c_str());
  }
  for (const auto& [name, m] : notes_) {
    if (m.samples > 0) {
      std::printf("metric %-40s %14.3f %-6s n=%zu\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("metric %-40s %14.3f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& [name, m] : gated_) {
    std::printf("gate   %-40s %14.3f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }

  std::vector<std::pair<std::string, double>> gate_values;
  std::vector<std::string> gate_units;
  for (const auto& [name, m] : gated_) {
    gate_values.push_back({name, m.value});
    gate_units.push_back(m.unit);
  }

  std::ostringstream results;
  results << "{\n  \"stamp\": {";
  bool first = true;
  for (const auto& [key, value] : stamp_) {
    results << (first ? "" : ", ") << "\"" << JsonEscape(key) << "\": \""
            << JsonEscape(value) << "\"";
    first = false;
  }
  results << "},\n  \"checks\": {";
  first = true;
  for (const auto& [name, check] : checks_) {
    results << (first ? "" : ", ") << "\"" << JsonEscape(name)
            << "\": {\"ok\": " << (check.first ? "true" : "false")
            << ", \"detail\": \"" << JsonEscape(check.second) << "\"}";
    first = false;
  }
  results << "},\n  \"metrics\": {\n";
  first = true;
  for (const auto& [name, m] : notes_) {
    results << (first ? "" : ",\n") << "    \"" << JsonEscape(name)
            << "\": {\"value\": " << Number(m.value) << ", \"unit\": \""
            << JsonEscape(m.unit) << "\", \"samples\": " << m.samples << "}";
    first = false;
  }
  results << "\n  },\n  \"series\": {";
  first = true;
  for (const auto& [name, values] : series_) {
    results << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      results << (i > 0 ? ", " : "") << Number(values[i]);
    }
    results << "]";
    first = false;
  }
  results << "},\n  \"gated\": "
          << MetricsObject(gate_values, gate_units) << "\n}\n";
  std::ofstream(results_path) << results.str();

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_),
      MetricsObject(gate_values, gate_units).c_str());
  std::fflush(stdout);
}

CpuTimes ProcessCpu() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return CpuTimes{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

void ResetPeakRss() {
  // "5" resets the peak RSS of the process (proc(5), clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench
