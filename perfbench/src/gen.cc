#include "src/gen.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "src/lang/executor.h"
#include "src/workload/restaurant.h"
#include "src/xml/serializer.h"

namespace perfbench {

namespace {

// The workload generator's name parts and cities (src/workload/
// restaurant.cc): names without a serial suffix are single words, so an
// equality filter on them is pushed into the index join.
const char* const kBaseNames[] = {"Napoli",  "Akropolis", "Vesuvio",
                                  "Bergen",  "Paris",     "Roma",
                                  "Dragon",  "Sirocco",   "Fjord",
                                  "Olympia", "Trident",   "Aurora"};
const char* const kCities[] = {"Trondheim", "Paris", "Roma", "Athens"};

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

}  // namespace

const char* FamilyName(int family) {
  static const char* const kNames[kFamilyCount] = {
      "q1_snapshot", "q_current",  "q2_aggregate",
      "q3_every",    "q_lifetime", "q_diff"};
  return kNames[family];
}

txml::Timestamp Day(int d) {
  return txml::Timestamp::FromDate(2001, 1, 1).AddDays(d);
}

std::vector<GuideDoc> MakeGuides(uint64_t seed, const std::string& url_prefix,
                                 size_t docs, size_t versions,
                                 size_t restaurants) {
  std::vector<GuideDoc> out(docs);
  for (size_t i = 0; i < docs; ++i) {
    txml::RestaurantWorkload::Options options;
    options.restaurants = restaurants;
    options.seed = MixSeed(seed, i + 1);
    txml::RestaurantWorkload workload(options);
    char url[64];
    std::snprintf(url, sizeof(url), "%s%02zu.xml", url_prefix.c_str(), i);
    out[i].url = url;
    out[i].versions.reserve(versions);
    for (size_t v = 0; v < versions; ++v) {
      if (v > 0) workload.Step();
      out[i].versions.push_back(txml::SerializeXml(*workload.CurrentVersion()));
    }
  }
  return out;
}

std::vector<QueryCase> BuildQueryCases(const std::vector<GuideDoc>& docs,
                                       int days,
                                       const std::vector<int>& families) {
  std::vector<QueryCase> cases;
  for (int family : families) {
    for (size_t d = 0; d < docs.size(); ++d) {
      const std::string source = "doc(\"" + docs[d].url + "\")";
      auto add = [&](int day, std::string text) {
        cases.push_back(QueryCase{family, d, day, std::move(text), ""});
      };
      switch (family) {
        case kQ1Snapshot:
          for (int day = 0; day < days; ++day) {
            add(day, "SELECT R FROM " + source + "[" + Day(day).ToString() +
                         "]/guide/restaurant R");
          }
          break;
        case kQ2Aggregate:
          for (int day = 0; day < days; ++day) {
            add(day, "SELECT COUNT(R) FROM " + source + "[" +
                         Day(day).ToString() + "]/guide/restaurant R");
          }
          break;
        case kQDiff:
          for (int day = 1; day < days; ++day) {
            add(day, "SELECT DIFF(PREVIOUS(R), R) FROM " + source + "[" +
                         Day(day).ToString() + "]/guide R");
          }
          break;
        case kQCurrent:
          for (const char* city : kCities) {
            add(-1, "SELECT R FROM " + source +
                        "/guide/restaurant R WHERE R/city = \"" + city + "\"");
          }
          break;
        case kQLifetime:
          for (const char* city : kCities) {
            add(-1, "SELECT R/name, CREATE TIME(R) FROM " + source +
                        "/guide/restaurant R WHERE R/city = \"" + city + "\"");
          }
          break;
        case kQ3Every:
          for (const char* name : kBaseNames) {
            add(-1, "SELECT TIME(R), R/price FROM " + source +
                        "[EVERY]/guide/restaurant R WHERE R/name = \"" +
                        name + "\"");
          }
          break;
      }
    }
  }
  return cases;
}

bool ComputeExpected(const txml::TemporalXmlDatabase& db,
                     std::vector<QueryCase>* cases, size_t threads,
                     std::string* error) {
  txml::ExecOptions options;
  options.now = db.latest_commit();
  options.scan_strategy = txml::ScanStrategy::kTraversal;
  const txml::QueryContext ctx = db.Context();
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  auto worker = [&] {
    txml::QueryExecutor executor(ctx, options);
    for (size_t i = next.fetch_add(1); i < cases->size();
         i = next.fetch_add(1)) {
      QueryCase& c = (*cases)[i];
      txml::ExecStats stats;
      auto result = executor.Execute(c.text, &stats);
      if (!result.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        *error = c.text + ": " + result.status().ToString();
        continue;
      }
      c.expected = txml::SerializeXml(*result->root());
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return error->empty();
}

bool LoadGuides(txml::TemporalXmlDatabase* db,
                const std::vector<GuideDoc>& docs, std::string* error) {
  for (const GuideDoc& doc : docs) {
    for (size_t v = 0; v < doc.versions.size(); ++v) {
      auto put = db->PutDocumentAt(doc.url, doc.versions[v],
                                   Day(static_cast<int>(v)));
      if (!put.ok()) {
        *error = doc.url + ": " + put.status().ToString();
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
