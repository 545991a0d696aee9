// Seeded inputs of the benchmark: restaurant-guide histories (the paper's
// Figure 1 scaled up, via txml::RestaurantWorkload) and the query cases
// drawn over them, with their expected answers.
#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/util/timestamp.h"

namespace perfbench {

/// Query families of the read path; each names the paper query or
/// operator it exercises (see perfbench/README.md).
enum Family {
  kQ1Snapshot = 0,  // Q1: listing at a past day — TPatternScan + Reconstruct
  kQCurrent,        // current listing with a WHERE filter — PatternScan
  kQ2Aggregate,     // Q2: COUNT at a past day — TPatternScan
  kQ3Every,         // Q3: [EVERY] price history — TPatternScanAll
  kQLifetime,       // CREATE TIME — CreTime
  kQDiff,           // DIFF(PREVIOUS(R), R) — Diff
  kFamilyCount,
};
const char* FamilyName(int family);

/// Day d of the timeline; d = 0 is 01/01/2001. Version d + 1 of every
/// generated document is stored at day d.
txml::Timestamp Day(int d);

struct GuideDoc {
  std::string url;
  /// Compact XML text of versions 1..n, in order.
  std::vector<std::string> versions;
};

/// `docs` guide documents of `restaurants` entries each, with `versions`
/// successive versions. The same seed gives the same texts.
std::vector<GuideDoc> MakeGuides(uint64_t seed, const std::string& url_prefix,
                                 size_t docs, size_t versions,
                                 size_t restaurants);

struct QueryCase {
  int family = kQ1Snapshot;
  size_t doc = 0;  // index into the guide vector
  int day = -1;    // snapshot day for Q1, Q2 and DIFF; -1 otherwise
  std::string text;
  std::string expected;  // answer of the traversal arm, compact
};

/// Every query case of `families` over `docs`, whose histories span
/// `days` days: Q1/Q2 per (document, day), DIFF per (document, day >= 1),
/// current and CREATE TIME per (document, city), Q3 per (document, one
/// of the twelve single-word restaurant names).
std::vector<QueryCase> BuildQueryCases(const std::vector<GuideDoc>& docs,
                                       int days,
                                       const std::vector<int>& families);

/// Fills `expected` of every case from `db`, executing with the traversal
/// scan arm (no index join) on `threads` threads. `db` must have no
/// snapshot cache attached. Returns false (and `error`) if a case fails.
bool ComputeExpected(const txml::TemporalXmlDatabase& db,
                     std::vector<QueryCase>* cases, size_t threads,
                     std::string* error);

/// Loads every version of `docs` into `db` at Day(0), Day(1), ….
bool LoadGuides(txml::TemporalXmlDatabase* db,
                const std::vector<GuideDoc>& docs, std::string* error);

/// Mix weights in percent, indexed by Family: 30/20/15/10/10/15.
inline constexpr int kQueryMixWeights[kFamilyCount] = {30, 20, 15, 10, 10, 15};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
