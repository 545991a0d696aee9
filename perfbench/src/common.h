// Shared helpers of the end-to-end benchmark: clocks, latency samples and
// the metric sink that prints the report and the final JSON line.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return MicrosSince(start) / 1e6;
}

/// A bag of measurements (latencies in µs, sizes, ratios).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  bool empty() const { return values_.empty(); }
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  /// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
  /// beyond it; `label` receives its name ("p99" …).
  double TailQuantile(std::string* label) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void Sort() const;
};

/// Collects the metrics of one run. End-to-end metrics go to the JSON line
/// of an untraced run, per-layer metrics to that of a traced run; every
/// metric (plus the per-workload named ones that the JSON does not carry)
/// is printed as a human-readable report line and kept in the results file.
class Report {
 public:
  void SetStamp(const std::string& key, const std::string& value) {
    stamp_[key] = value;
  }
  /// A metric that goes into the JSON line (gated by BENCHMARK.json).
  void Gate(const std::string& name, double value, const std::string& unit);
  /// A named metric printed in the report only.
  void Note(const std::string& name, double value, const std::string& unit,
            size_t samples = 0);
  /// A latency summary: "<name>_p50_us", its tail percentile and the
  /// sample count, printed in the report.
  void NoteLatency(const std::string& name, const Samples& samples);
  void AddCheck(const std::string& name, bool ok, const std::string& detail);
  /// A series kept in the results file only (per-window or per-round
  /// values behind a gated median).
  void AddSeries(const std::string& name, const std::vector<double>& values) {
    series_.push_back({name, values});
  }

  void set_attempted(uint64_t n) { attempted_ = n; }
  void add_failed(uint64_t n) { failed_ += n; }
  bool correct() const;

  /// Prints the report lines to stdout, writes `results_path` (JSON with
  /// every metric and the stamp), then prints the final JSON line.
  void Emit(const std::string& results_path) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, std::string> stamp_;
  std::vector<std::pair<std::string, Metric>> gated_;
  std::vector<std::pair<std::string, Metric>> notes_;
  std::vector<std::pair<std::string, std::pair<bool, std::string>>> checks_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB (VmHWM) since the start
/// or the last ResetPeakRss().
double PeakRssMb();
void ResetPeakRss();

/// CPU time this process has run, all threads, in seconds. Time the host
/// takes away from the virtual CPUs (steal) is not counted.
struct CpuTimes {
  double user = 0;
  double system = 0;
};
CpuTimes ProcessCpu();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
