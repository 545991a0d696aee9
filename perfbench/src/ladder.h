// The traced run's layer ladder. A sampled request is walked down the
// layers by calling each layer's public entry point from here, timing each
// call as a span. No span is recorded inside the program.
//
// Query ladder, after the real request has gone over the wire:
//   net      TxmlClient::Execute (again, so the cache state matches below)
//   service  TemporalQueryService::Execute, in process
//   core     TemporalXmlDatabase::QueryAt
//   xml      SerializeXml of the result
//   lang     ParseQuery (Tokenize + parse)
//   query    the scan operator the planner picks, plus CreTime / DiffOp
//   index    LookupCurrent / LookupT / LookupH on the pattern's terms
//   storage  ReconstructVersion of the versions the request reads, uncached
// A layer's self time is its span minus its children's spans (net >
// service > {core > {lang, query > index}, xml}). The storage span is
// charged at the share of the real request's snapshot lookups that missed
// the cache (its ExecStats), so the self times of one walk add up to a
// warm-cache round trip plus the reconstructions the real request paid for.
#ifndef PERFBENCH_SRC_LADDER_H_
#define PERFBENCH_SRC_LADDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common.h"
#include "src/gen.h"
#include "src/net/client.h"
#include "src/service/service.h"

namespace perfbench {

/// One timed call. `parent` indexes the span of the same request that
/// caused it (-1 for the request's root).
struct Span {
  uint64_t request = 0;
  const char* layer = "";
  int family = -1;  // Family, or -1 for a put
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
};

/// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  double Now() const { return MicrosSince(origin_); }
  double At(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  uint64_t NextRequest();
  void Record(const std::vector<Span>& spans);
  /// The root span of an unwalked request.
  void RecordRequest(int family, Clock::time_point start,
                     Clock::time_point end);
  bool WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// The measurements of one walked query.
struct QueryWalk {
  int family = 0;
  double net_us = 0, service_us = 0, core_us = 0, xml_us = 0, lang_us = 0;
  double scan_us = 0, lifetime_us = 0, diff_us = 0, index_us = 0;
  double reconstruct_us = 0;  // one uncached ReconstructVersion, mean
  double storage_us = 0;      // the storage span × the real miss share
  double codec_us = 0;
  double real_us = 0;  // the real request's round trip
  size_t postings = 0, deltas = 0, reconstructs_timed = 0;
  size_t response_bytes = 0;
  txml::ExecStats real_stats;  // as the wire returned them
  txml::ExecStats core_stats;  // of the in-process QueryAt: plan choices
};

/// The measurements of one walked put: a put over the wire and the next
/// version of the same document put in process.
struct PutWalk {
  double client_us = 0, service_us = 0, parse_us = 0, diff_us = 0;
  size_t edit_ops = 0;
};

class Ladder {
 public:
  explicit Ladder(Tracer* tracer) : tracer_(tracer) {}

  /// Walks `c` after its real round trip (`real_us`, `real_stats`). Every
  /// answer on the way is compared with `c.expected` when that is set.
  /// Readers only: nothing may commit while a walk runs.
  bool WalkQuery(txml::TxmlClient* client, txml::TemporalQueryService* service,
                 const QueryCase& c,
                 double real_us, const txml::ExecStats& real_stats,
                 std::string* error);

  /// Times the layers under a put of `text` whose previous version is
  /// `previous`. The caller measured two round trips: a put over the wire
  /// starting at `client_start`, and the next version of the same document
  /// put in process starting at `service_start`.
  void WalkPut(const std::string& previous, const std::string& text,
               Clock::time_point client_start, double client_us,
               Clock::time_point service_start, double service_us);

  size_t query_walks(int family) const;
  size_t put_walks() const;

  /// Emits the ladder's per-layer metrics. `family_p50_us[f]` is the
  /// untraced round-trip p50 of family f (0 if the workload has none, in
  /// which case the walked real round trips stand in).
  void Emit(const double family_p50_us[kFamilyCount], Report* report) const;

 private:
  Tracer* tracer_;
  mutable std::mutex mu_;
  std::vector<QueryWalk> queries_;
  std::vector<PutWalk> puts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LADDER_H_
