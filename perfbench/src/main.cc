// txml end-to-end benchmark program. One process starts a TxmlServer over a
// TemporalQueryService and drives it through TxmlClient connections on
// loopback, closed loop, checking every answer.
//
//   txml_perfbench --workload query_mix|ingest|mixed --seed N --seconds S
//                  --trace 0|1 [--out DIR] [--git-sha SHA] [--src-digest D]
//
// The last line of standard output is the result JSON; the lines before it
// are the report (every metric by name, unit and sample count). The
// workloads and metrics are described in perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/common.h"
#include "src/gen.h"
#include "src/ladder.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/service/service.h"
#include "src/util/random.h"
#include "src/xml/serializer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

constexpr size_t kReaders = 3;          // query_mix connections
constexpr int kSetupRepeats = 3;        // setup_s is the median of these
constexpr int kWalkEvery = 16;          // traced run: 1 in 16 requests walked
constexpr size_t kMinWalks = 32;        // per family / for puts, topped up
constexpr double kWarmupSeconds = 1.0;  // before measuring read workloads

uint64_t Salt(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL;
  x ^= x >> 29;
  return x == 0 ? 1 : x;
}

/// State shared by a run's phases: the report, failures, the trace.
struct Run {
  Args args;
  Report report;
  Tracer tracer{Clock::now()};
  Ladder ladder{&tracer};
  std::mutex error_mu;
  std::string first_error;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.empty()) first_error = what;
  }
  /// An end-to-end metric: gated in an untraced run, noted in a traced one.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    if (args.trace) {
      report.Note(name, value, unit);
    } else {
      report.Gate(name, value, unit);
    }
  }
  void PerLayer(const std::string& name, double value,
                const std::string& unit) {
    if (args.trace) {
      report.Gate(name, value, unit);
    } else {
      report.Note(name, value, unit);
    }
  }
};

/// A service with its server and client connections on loopback.
struct Stack {
  std::unique_ptr<txml::TemporalQueryService> service;
  std::unique_ptr<txml::TxmlServer> server;
  std::vector<txml::TxmlClient> clients;

  ~Stack() { Close(); }
  void Close() {
    for (txml::TxmlClient& c : clients) c.Close();
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

bool StartStack(Stack* stack, size_t connections, std::string* error) {
  txml::ServerOptions options;
  stack->server =
      std::make_unique<txml::TxmlServer>(stack->service.get(), options);
  txml::Status started = stack->server->Start();
  if (!started.ok()) {
    *error = "server start: " + started.ToString();
    return false;
  }
  for (size_t i = 0; i < connections; ++i) {
    auto client = txml::TxmlClient::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) {
      *error = "connect: " + client.status().ToString();
      return false;
    }
    stack->clients.push_back(std::move(*client));
  }
  return true;
}

/// Returns freed heap pages to the system between phases, so that the peak
/// RSS reflects the largest phase rather than how freed memory happened to
/// fragment across the allocator's per-thread arenas.
void ReleaseFreedMemory() { malloc_trim(0); }

/// Day-major load of every version of `docs` through the service.
bool LoadThroughService(txml::TemporalQueryService* service,
                        const std::vector<GuideDoc>& docs, size_t versions,
                        std::string* error) {
  for (size_t v = 0; v < versions; ++v) {
    for (const GuideDoc& doc : docs) {
      txml::PutRequest put;
      put.url = doc.url;
      put.xml_text = doc.versions[v];
      put.timestamp = Day(static_cast<int>(v));
      auto done = service->Execute(put);
      if (!done.ok()) {
        *error = "load " + doc.url + ": " + done.status().ToString();
        return false;
      }
    }
  }
  return true;
}

/// Sets up an in-memory service loaded with `versions` versions of `docs`,
/// its server and `connections` clients, kSetupRepeats times; the last
/// stays up in `stack`. Reports the median as setup_s.
bool SetUpInMemory(Run* run, const txml::DatabaseOptions& db_options,
                   const std::vector<GuideDoc>& docs, size_t versions,
                   size_t connections, Stack* stack) {
  txml::ServiceOptions options;
  options.database = db_options;
  Samples setup_s;
  std::string error;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack->Close();
    stack->service.reset();
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    auto service = txml::TemporalQueryService::Create(options);
    if (!service.ok()) {
      run->Fail("create: " + service.status().ToString());
      return false;
    }
    stack->service = std::move(*service);
    if (!LoadThroughService(stack->service.get(), docs, versions, &error) ||
        !StartStack(stack, connections, &error)) {
      run->Fail(error);
      return false;
    }
    setup_s.Add(SecondsSince(start));
  }
  run->EndToEnd("setup_s", setup_s.Median(), "s");
  return true;
}

uint64_t UserBytes(const std::vector<GuideDoc>& docs, size_t versions) {
  uint64_t bytes = 0;
  for (const GuideDoc& doc : docs) {
    for (size_t v = 0; v < versions && v < doc.versions.size(); ++v) {
      bytes += doc.versions[v].size();
    }
  }
  return bytes;
}

struct StoreBytes {
  double current = 0, delta = 0, snapshot = 0;
  double total() const { return current + delta + snapshot; }
};

StoreBytes MeasureStore(const txml::TemporalXmlDatabase& db) {
  StoreBytes bytes;
  for (const txml::VersionedDocument* doc : db.store().AllDocuments()) {
    bytes.current += static_cast<double>(doc->CurrentBytes());
    bytes.delta += static_cast<double>(doc->DeltaBytes());
    bytes.snapshot += static_cast<double>(doc->SnapshotBytes());
  }
  return bytes;
}

/// Samples the FTI differential's size every 20 ms on its own thread,
/// when `enabled`: only traced runs report the samples, and the thread's
/// CPU would count in an untraced run's cpu_us_per_op.
class GaugeSampler {
 public:
  GaugeSampler(const txml::TemporalQueryService* service, bool enabled)
      : service_(service),
        thread_(enabled ? std::thread([this] { Loop(); }) : std::thread()) {}
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;
  /// Stops sampling; returns the samples.
  const Samples& Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      samples_.Add(
          static_cast<double>(service_->Stats().fti.differential_postings));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const txml::TemporalQueryService* service_;
  std::atomic<bool> stop_{false};
  Samples samples_;
  std::thread thread_;
};

/// The largest group-commit batch written between `b` and `a`. The service
/// keeps only a lifetime max, which also covers batches written before `b`
/// (ingest's set-up batch): it is the answer only when it grew after `b`.
/// Otherwise the answer is the upper edge of the largest batch-size bucket
/// (sizes in (2^(i-1), 2^i]) that grew, capped by the lifetime max.
uint64_t MaxBatchSince(const txml::ServiceStats& b,
                       const txml::ServiceStats& a) {
  if (a.commit_path.max_batch_records > b.commit_path.max_batch_records) {
    return a.commit_path.max_batch_records;
  }
  for (size_t i = txml::CommitPathStats::kBatchHistogramBuckets; i-- > 0;) {
    if (a.commit_path.batch_size_histogram[i] >
        b.commit_path.batch_size_histogram[i]) {
      return std::min<uint64_t>(uint64_t{1} << i,
                                a.commit_path.max_batch_records);
    }
  }
  return 0;
}

struct CounterTotals {
  double cache_hits = 0, cache_lookups = 0, cache_evictions = 0;
  double shard_waits = 0, shard_acquires = 0;
  double records = 0, syncs = 0, max_batch = 0;
  double folds = 0, wal_bytes = 0, puts = 0;

  /// Adds what the service's counters gained from `b` to `a`.
  void Add(const txml::ServiceStats& b, const txml::ServiceStats& a) {
    cache_hits += static_cast<double>(a.snapshot_cache.hits -
                                      b.snapshot_cache.hits);
    cache_lookups += static_cast<double>(
        a.snapshot_cache.hits + a.snapshot_cache.misses -
        b.snapshot_cache.hits - b.snapshot_cache.misses);
    cache_evictions += static_cast<double>(a.snapshot_cache.evictions -
                                           b.snapshot_cache.evictions);
    for (size_t i = 0; i < a.commit_path.shards.size(); ++i) {
      const auto& sa = a.commit_path.shards[i];
      const txml::CommitShardStats sb = i < b.commit_path.shards.size()
                                            ? b.commit_path.shards[i]
                                            : txml::CommitShardStats{};
      shard_waits += static_cast<double>(sa.waits - sb.waits);
      shard_acquires += static_cast<double>(sa.acquires - sb.acquires);
    }
    records += static_cast<double>(a.commit_path.records_written -
                                   b.commit_path.records_written);
    syncs += static_cast<double>(a.commit_path.syncs - b.commit_path.syncs);
    max_batch = std::max(max_batch, static_cast<double>(MaxBatchSince(b, a)));
    folds += static_cast<double>(a.fti.compactions - b.fti.compactions);
    wal_bytes += static_cast<double>(a.durability.wal_bytes -
                                     b.durability.wal_bytes);
    puts += static_cast<double>(a.writes_committed - b.writes_committed);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer metrics that come from the service's counters, the store and
/// two probes: a fold at the service's fold threshold and a full save.
void EmitStoreAndCounters(Run* run, const txml::TemporalXmlDatabase& db,
                          const CounterTotals& c, const Samples& differential,
                          const std::vector<GuideDoc>& docs,
                          uint32_t snapshot_every) {
  run->PerLayer("service.cache_hit_ratio",
                Ratio(c.cache_hits, c.cache_lookups), "ratio");
  run->PerLayer("service.cache_evictions", c.cache_evictions, "count");
  run->PerLayer("service.shard_wait_ratio",
                Ratio(c.shard_waits, c.shard_acquires), "ratio");
  run->PerLayer("service.records_per_sync", Ratio(c.records, c.syncs),
                "count");
  run->PerLayer("service.max_batch_records", c.max_batch, "count");
  run->PerLayer("index.differential_postings", differential.Mean(), "count");
  run->PerLayer("index.folds", c.folds, "count");
  run->PerLayer("storage.wal_bytes_per_put", Ratio(c.wal_bytes, c.puts),
                "bytes");
  run->PerLayer("storage.syncs_per_put", Ratio(c.syncs, c.puts), "count");
  const StoreBytes bytes = MeasureStore(db);
  run->PerLayer("storage.current_bytes", bytes.current, "bytes");
  run->PerLayer("storage.delta_bytes", bytes.delta, "bytes");
  run->PerLayer("storage.snapshot_bytes", bytes.snapshot, "bytes");

  // Fold probe: the fold a commit pays when the differential reaches the
  // service's threshold, on this workload's documents.
  Samples fold_us;
  {
    const size_t fold_postings =
        txml::ServiceOptions{}.fti_compact_min_postings;
    txml::DatabaseOptions options;
    options.snapshot_every = snapshot_every;
    txml::TemporalXmlDatabase probe(options);
    size_t v = 0;
    while (fold_us.count() < 3 && v < docs[0].versions.size()) {
      for (const GuideDoc& doc : docs) {
        auto put = probe.PutDocumentAt(doc.url, doc.versions[v],
                                       Day(static_cast<int>(v)));
        if (!put.ok()) run->Fail("fold probe: " + put.status().ToString());
        if (probe.fti().differential_posting_count() >= fold_postings) {
          const Clock::time_point start = Clock::now();
          probe.CompactFti();
          fold_us.Add(MicrosSince(start));
        }
      }
      ++v;
    }
  }
  run->PerLayer("index.fold_us", fold_us.Median(), "us");

  // Checkpoint probe: a full save of the final database.
  Samples save_s;
  const fs::path dir =
      fs::path(run->args.out) / ("save-" + std::to_string(getpid()));
  for (int i = 0; i < 3; ++i) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const Clock::time_point start = Clock::now();
    txml::Status saved = db.Save(dir.string());
    save_s.Add(SecondsSince(start));
    if (!saved.ok()) run->Fail("save probe: " + saved.ToString());
  }
  fs::remove_all(dir);
  run->PerLayer("storage.checkpoint_s", save_s.Median(), "s");
}

// ------------------------------------------------------------- readers

/// What the read loop of one phase measured.
struct ReadPhase {
  Samples by_family[kFamilyCount];
  Samples all;
  /// (completion time since start in s, latency in µs) of each request.
  std::vector<std::pair<double, double>> timeline;
  double seconds = 0;
  CpuTimes cpu;  // the whole process's, over the phase
  uint64_t requests = 0;
  double qps() const { return Ratio(static_cast<double>(requests), seconds); }
};

/// Medians over the phase's whole 1-second windows of each window's
/// request rate and of its latency p50 and p90. Load from other tenants of
/// a shared host comes in episodes of seconds; an episode shorter than half
/// the run leaves these medians unchanged, while a stall that recurs in
/// every window still moves them. The report's p99 over all requests shows
/// rare stalls.
struct Windowed {
  double rate = 0, p50_us = 0, p90_us = 0;
  std::vector<double> rates, p50s, p90s;
};

Windowed WindowMedians(const ReadPhase& phase) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(phase.seconds));
  std::vector<Samples> latency(windows);
  for (const auto& [done_s, us] : phase.timeline) {
    const size_t w = static_cast<size_t>(done_s);
    if (w < windows) latency[w].Add(us);
  }
  Windowed out;
  Samples rates, p50s, p90s;
  for (const Samples& window : latency) {
    out.rates.push_back(static_cast<double>(window.count()));
    out.p50s.push_back(window.Median());
    out.p90s.push_back(window.Quantile(0.9));
    rates.Add(out.rates.back());
    if (!window.empty()) {
      p50s.Add(out.p50s.back());
      p90s.Add(out.p90s.back());
    }
  }
  out.rate = rates.Median();
  out.p50_us = p50s.Median();
  out.p90_us = p90s.Median();
  return out;
}

/// A request a traced reader sampled but could not walk at once (a writer
/// was committing); walked after the writer stops.
struct Deferred {
  size_t case_index;
  double real_us;
  txml::ExecStats stats;
};

/// Closed loop on `clients[first..first+count)`: each connection picks a
/// family by `weights`, then a case of it uniformly, and waits for the
/// answer. Answers with a non-empty expectation are compared byte for
/// byte. `measure` is false for warm-up.
ReadPhase RunReaders(Run* run, Stack* stack, size_t first, size_t count,
                     const std::vector<QueryCase>& cases,
                     const std::vector<std::vector<size_t>>& by_family,
                     const int weights[kFamilyCount], double seconds,
                     bool traced, bool walk_inline, uint64_t salt,
                     std::vector<Deferred>* deferred) {
  ReadPhase phase;
  std::vector<ReadPhase> local(count);
  std::vector<std::vector<Deferred>> local_deferred(count);
  int total_weight = 0;
  for (int f = 0; f < kFamilyCount; ++f) total_weight += weights[f];
  const Clock::time_point start = Clock::now();
  const CpuTimes cpu_start = ProcessCpu();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      txml::TxmlClient* client = &stack->clients[first + t];
      txml::Random rng(Salt(run->args.seed, salt * 16 + t));
      ReadPhase& mine = local[t];
      uint64_t n = 0;
      txml::QueryRequest request;
      request.pretty = false;
      while (Clock::now() < deadline) {
        int pick = static_cast<int>(rng.Uniform(total_weight));
        int f = 0;
        while (pick >= weights[f]) pick -= weights[f++];
        const std::vector<size_t>& pool = by_family[f];
        const size_t index = pool[rng.Uniform(pool.size())];
        const QueryCase& c = cases[index];
        request.query_text = c.text;
        const Clock::time_point sent = Clock::now();
        auto response = client->Execute(request);
        const Clock::time_point done = Clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(done - sent).count();
        run->attempted.fetch_add(1);
        ++mine.requests;
        if (!response.ok()) {
          run->Fail(c.text + ": " + response.status().ToString());
          continue;
        }
        if (!c.expected.empty() && response->payload != c.expected) {
          run->Fail("answer differs from the expected one: " + c.text);
          continue;
        }
        mine.by_family[f].Add(us);
        mine.all.Add(us);
        mine.timeline.push_back(
            {std::chrono::duration<double>(done - start).count(), us});
        if (!traced) continue;
        run->tracer.RecordRequest(f, sent, done);
        if (++n % kWalkEvery != 0) continue;
        if (walk_inline) {
          std::string error;
          if (!run->ladder.WalkQuery(client, stack->service.get(), c, us,
                                     response->stats, &error)) {
            run->Fail("ladder: " + error);
          }
        } else {
          local_deferred[t].push_back(Deferred{index, us, response->stats});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = SecondsSince(start);
  const CpuTimes cpu_end = ProcessCpu();
  phase.cpu = CpuTimes{cpu_end.user - cpu_start.user,
                       cpu_end.system - cpu_start.system};
  for (size_t t = 0; t < count; ++t) {
    for (int f = 0; f < kFamilyCount; ++f) {
      phase.by_family[f].Append(local[t].by_family[f]);
    }
    phase.all.Append(local[t].all);
    phase.timeline.insert(phase.timeline.end(), local[t].timeline.begin(),
                          local[t].timeline.end());
    phase.requests += local[t].requests;
    if (deferred != nullptr) {
      deferred->insert(deferred->end(), local_deferred[t].begin(),
                       local_deferred[t].end());
    }
  }
  return phase;
}

/// Walks families that have fewer than kMinWalks walks, over `cases`, on
/// one connection. Used after the measured phases, with no writer running.
void TopUpQueryWalks(Run* run, Stack* stack, const std::vector<QueryCase>& cases,
                     const std::vector<std::vector<size_t>>& by_family) {
  txml::Random rng(Salt(run->args.seed, 977));
  txml::QueryRequest request;
  request.pretty = false;
  for (int f = 0; f < kFamilyCount; ++f) {
    if (by_family[f].empty()) continue;
    while (run->ladder.query_walks(f) < kMinWalks) {
      const QueryCase& c = cases[by_family[f][rng.Uniform(by_family[f].size())]];
      request.query_text = c.text;
      const Clock::time_point sent = Clock::now();
      auto response = stack->clients[0].Execute(request);
      const double us = MicrosSince(sent);
      std::string error;
      if (!response.ok()) {
        run->Fail("top-up: " + response.status().ToString());
        return;
      }
      if (!run->ladder.WalkQuery(&stack->clients[0], stack->service.get(), c,
                                 us, response->stats, &error)) {
        run->Fail("ladder: " + error);
        return;
      }
    }
  }
}

/// Puts kMinWalks pairs of versions of a fresh document, one over the wire
/// and the next in process, walking the put ladder for each pair. Used on
/// workloads whose measured phases put nothing over the wire.
void TopUpPutWalks(Run* run, Stack* stack) {
  const std::vector<GuideDoc> probe = MakeGuides(
      Salt(run->args.seed, 555), "http://guide.com/probe", 1,
      2 * kMinWalks + 1, 60);
  const GuideDoc& doc = probe[0];
  // Past every loaded and written version, so no commit clock goes back.
  const txml::Timestamp base = stack->service->Epoch().AddDays(1);
  auto put = [&](size_t v) {
    txml::PutRequest request;
    request.url = doc.url;
    request.xml_text = doc.versions[v];
    request.timestamp = base.AddMicros(static_cast<int64_t>(v));
    return request;
  };
  if (!stack->service->Execute(put(0)).ok()) {
    run->Fail("put top-up: first version");
    return;
  }
  for (size_t v = 1; v + 1 < doc.versions.size(); v += 2) {
    const Clock::time_point wire_start = Clock::now();
    auto wire = stack->clients[0].Execute(put(v));
    const double wire_us = MicrosSince(wire_start);
    const Clock::time_point local_start = Clock::now();
    auto local = stack->service->Execute(put(v + 1));
    const double local_us = MicrosSince(local_start);
    if (!wire.ok() || !local.ok()) {
      run->Fail("put top-up failed");
      return;
    }
    run->ladder.WalkPut(doc.versions[v - 1], doc.versions[v], wire_start,
                        wire_us, local_start, local_us);
  }
}

void StampCommon(Run* run) {
  Report& r = run->report;
  r.SetStamp("git_sha", run->args.git_sha);
  r.SetStamp("src_digest", run->args.src_digest);
  r.SetStamp("build_type", PERFBENCH_BUILD_TYPE);
#ifdef TXML_LOCK_RANK
  r.SetStamp("txml_lock_rank", "ON");
#else
  r.SetStamp("txml_lock_rank", "OFF");
#endif
#ifdef TXML_FAILPOINTS
  r.SetStamp("txml_failpoints", "ON");
#else
  r.SetStamp("txml_failpoints", "OFF");
#endif
  r.SetStamp("compiler", PERFBENCH_CXX);
  r.SetStamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.SetStamp("seed", std::to_string(run->args.seed));
  r.SetStamp("workload", run->args.workload);
  r.SetStamp("seconds", std::to_string(run->args.seconds));
  r.SetStamp("trace", run->args.trace ? "1" : "0");
}

std::vector<std::vector<size_t>> IndexByFamily(
    const std::vector<QueryCase>& cases) {
  std::vector<std::vector<size_t>> by_family(kFamilyCount);
  for (size_t i = 0; i < cases.size(); ++i) {
    by_family[static_cast<size_t>(cases[i].family)].push_back(i);
  }
  return by_family;
}

/// Untraced and traced read phases (trace mode), or one untraced phase.
/// Returns the untraced phase; the traced one feeds the ladder.
ReadPhase MeasureReads(Run* run, Stack* stack, size_t first, size_t count,
                       const std::vector<QueryCase>& cases,
                       const std::vector<std::vector<size_t>>& by_family,
                       const int weights[kFamilyCount], bool walk_inline,
                       std::vector<Deferred>* deferred) {
  const double seconds = run->args.seconds;
  RunReaders(run, stack, first, count, cases, by_family, weights,
             kWarmupSeconds, false, false, 1, nullptr);
  if (!run->args.trace) {
    return RunReaders(run, stack, first, count, cases, by_family, weights,
                      seconds, false, false, 2, nullptr);
  }
  ReadPhase plain = RunReaders(run, stack, first, count, cases, by_family,
                               weights, seconds / 2, false, false, 2, nullptr);
  ReadPhase traced =
      RunReaders(run, stack, first, count, cases, by_family, weights,
                 seconds / 2, true, walk_inline, 3, deferred);
  run->PerLayer("trace.overhead_ratio", Ratio(traced.qps(), plain.qps()),
                "ratio");
  return plain;
}

void NoteReadMetrics(Run* run, const ReadPhase& phase,
                     const std::vector<int>& families) {
  Report& r = run->report;
  r.Note("query_qps", phase.qps(), "1/s", phase.all.count());
  r.Note("query_p99_us", phase.all.Quantile(0.99), "us", phase.all.count());
  for (int f : families) {
    r.NoteLatency(FamilyName(f), phase.by_family[f]);
  }
}

// ------------------------------------------------------------- query_mix

int RunQueryMix(Run* run) {
  constexpr size_t kDocs = 32, kVersions = 64, kRestaurants = 60;
  std::string error;
  const std::vector<GuideDoc> docs =
      MakeGuides(run->args.seed, "http://guide.com/g", kDocs, kVersions,
                 kRestaurants);
  std::vector<QueryCase> cases =
      BuildQueryCases(docs, kVersions, {0, 1, 2, 3, 4, 5});
  const auto by_family = IndexByFamily(cases);
  run->report.SetStamp("data",
                       "32 docs x 64 daily versions x 60 restaurants, "
                       "snapshot_every=16, cache 1024 entries, " +
                           std::to_string(cases.size()) + " query cases");

  txml::DatabaseOptions db_options;
  db_options.snapshot_every = 16;
  {
    const Clock::time_point start = Clock::now();
    txml::TemporalXmlDatabase oracle(db_options);
    if (!LoadGuides(&oracle, docs, &error) ||
        !ComputeExpected(oracle, &cases, 4, &error)) {
      run->Fail("oracle: " + error);
      return 1;
    }
    run->report.Note("oracle_s", SecondsSince(start), "s");
  }
  ReleaseFreedMemory();

  Stack stack;
  if (!SetUpInMemory(run, db_options, docs, kVersions, kReaders, &stack)) {
    return 1;
  }

  const txml::ServiceStats before = stack.service->Stats();
  GaugeSampler differential(stack.service.get(), run->args.trace);
  ResetPeakRss();
  const ReadPhase phase =
      MeasureReads(run, &stack, 0, kReaders, cases, by_family,
                   kQueryMixWeights, /*walk_inline=*/true, nullptr);
  run->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  const txml::ServiceStats after = stack.service->Stats();
  const Samples differential_samples = differential.Stop();

  NoteReadMetrics(run, phase, {0, 1, 2, 3, 4, 5});
  const Windowed windowed = WindowMedians(phase);
  run->report.AddSeries("window_ops_per_s", windowed.rates);
  run->report.AddSeries("window_p50_us", windowed.p50s);
  run->report.AddSeries("window_p90_us", windowed.p90s);
  run->report.Note("ops_per_s", windowed.rate, "1/s");
  run->report.Note("op_p50_us", windowed.p50_us, "us");
  run->report.Note("op_p90_us", windowed.p90_us, "us");
  const double requests = static_cast<double>(phase.requests);
  run->EndToEnd("cpu_us_per_op",
                Ratio((phase.cpu.user + phase.cpu.system) * 1e6, requests),
                "us");
  run->report.Note("cpu_user_us_per_op", Ratio(phase.cpu.user * 1e6, requests),
                   "us");
  run->report.Note("cpu_system_us_per_op",
                   Ratio(phase.cpu.system * 1e6, requests), "us");
  const double user = static_cast<double>(UserBytes(docs, kVersions));
  run->EndToEnd("stored_bytes_per_user_byte",
                MeasureStore(stack.service->database()).total() / user,
                "ratio");

  if (run->args.trace) {
    CounterTotals totals;
    totals.Add(before, after);
    TopUpQueryWalks(run, &stack, cases, by_family);
    TopUpPutWalks(run, &stack);
    EmitStoreAndCounters(run, stack.service->database(), totals,
                         differential_samples, docs, db_options.snapshot_every);
    double p50[kFamilyCount];
    for (int f = 0; f < kFamilyCount; ++f) {
      p50[f] = phase.by_family[f].Median();
    }
    run->ladder.Emit(p50, &run->report);
  }
  return 0;
}

// ------------------------------------------------------------- mixed

int RunMixed(Run* run) {
  constexpr size_t kDocs = 8, kLoaded = 64, kRestaurants = 60;
  constexpr size_t kMixedReaders = 2;
  constexpr double kPutsPerSecond = 100;
  constexpr int kMixedWeights[kFamilyCount] = {50, 50, 0, 0, 0, 0};
  const double total_seconds = run->args.seconds + kWarmupSeconds + 1;
  const size_t extra = static_cast<size_t>(
      kPutsPerSecond * total_seconds / static_cast<double>(kDocs)) + 2;
  std::string error;
  const std::vector<GuideDoc> docs =
      MakeGuides(run->args.seed, "http://guide.com/hot", kDocs,
                 kLoaded + extra, kRestaurants);

  // Readers: Q1 at 8 fixed past days (64 hot pairs, well under the 1024
  // cache entries) and the current listing, half and half.
  std::vector<QueryCase> all = BuildQueryCases(docs, kLoaded, {0, 1});
  txml::Random day_rng(Salt(run->args.seed, 31));
  std::vector<int> days;
  while (days.size() < 8) {
    const int d = static_cast<int>(day_rng.Uniform(kLoaded - 1));
    if (std::find(days.begin(), days.end(), d) == days.end()) days.push_back(d);
  }
  std::vector<QueryCase> cases;
  for (QueryCase& c : all) {
    if (c.family == kQ1Snapshot &&
        std::find(days.begin(), days.end(), c.day) == days.end()) {
      continue;
    }
    cases.push_back(std::move(c));
  }
  // Cases of every family over the hot documents, for the ladder top-up.
  std::vector<QueryCase> ladder_cases =
      BuildQueryCases(docs, kLoaded, {0, 1, 2, 3, 4, 5});
  run->report.SetStamp("data",
                       "8 hot docs x 64 daily versions x 60 restaurants, "
                       "snapshot_every=16, 64 hot (doc, day) pairs, "
                       "writer 100 puts/s");

  txml::DatabaseOptions db_options;
  db_options.snapshot_every = 16;
  const auto by_family = IndexByFamily(cases);

  Stack stack;
  if (!SetUpInMemory(run, db_options, docs, kLoaded, kMixedReaders + 1,
                     &stack)) {
    return 1;
  }

  // The past-day answers as the service gives them before any write; they
  // must not change while the writer commits.
  for (QueryCase& c : cases) {
    if (c.family != kQ1Snapshot) continue;
    txml::QueryRequest request;
    request.query_text = c.text;
    request.pretty = false;
    auto response = stack.service->Execute(request);
    if (!response.ok()) {
      run->Fail("setup answer: " + response.status().ToString());
      return 1;
    }
    c.expected = response->payload;
  }

  // The writer: open loop at a fixed rate on its own connection, next
  // version of the documents in turn. Latency counts from the due time.
  std::atomic<bool> stop_writer{false};
  std::atomic<bool> measuring{false};
  Samples commit_us, lateness_us;
  uint64_t user_bytes = UserBytes(docs, kLoaded);
  std::thread writer([&] {
    txml::TxmlClient* client = &stack.clients[kMixedReaders];
    const Clock::time_point start = Clock::now();
    const auto period = std::chrono::microseconds(
        static_cast<int64_t>(1e6 / kPutsPerSecond));
    for (size_t k = 0; !stop_writer.load(); ++k) {
      const Clock::time_point due = start + period * static_cast<int64_t>(k);
      std::this_thread::sleep_until(due);
      const size_t d = k % kDocs;
      const size_t v = kLoaded + k / kDocs;
      if (v >= docs[d].versions.size()) {
        run->Fail("writer ran out of generated versions");
        return;
      }
      txml::PutRequest put;
      put.url = docs[d].url;
      put.xml_text = docs[d].versions[v];
      const Clock::time_point sent = Clock::now();
      auto done = client->Execute(put);
      const double wire_us = MicrosSince(sent);
      run->attempted.fetch_add(1);
      if (!done.ok()) {
        run->Fail("put: " + done.status().ToString());
        continue;
      }
      user_bytes += put.xml_text.size();
      if (measuring.load()) {
        commit_us.Add(MicrosSince(due));
        lateness_us.Add(std::chrono::duration<double, std::micro>(sent - due)
                            .count());
      }
      if (run->args.trace && measuring.load() && k % kWalkEvery == 0 &&
          d + 1 < kDocs) {
        // The next slot's put goes in process; the pair feeds the put
        // ladder. It keeps the writer's schedule.
        ++k;
        const Clock::time_point next_due =
            start + period * static_cast<int64_t>(k);
        std::this_thread::sleep_until(next_due);
        txml::PutRequest local = put;
        local.url = docs[d + 1].url;
        local.xml_text = docs[d + 1].versions[v];
        const Clock::time_point local_start = Clock::now();
        auto local_done = stack.service->Execute(local);
        const double local_us = MicrosSince(local_start);
        run->attempted.fetch_add(1);
        if (!local_done.ok()) {
          run->Fail("put: " + local_done.status().ToString());
          continue;
        }
        user_bytes += local.xml_text.size();
        run->ladder.WalkPut(docs[d].versions[v - 1], docs[d].versions[v], sent,
                            wire_us, local_start, local_us);
      }
    }
  });

  const txml::ServiceStats before = stack.service->Stats();
  ResetPeakRss();
  std::vector<Deferred> deferred;
  ReadPhase phase;
  Samples differential_samples;
  {
    GaugeSampler differential(stack.service.get(), run->args.trace);
    RunReaders(run, &stack, 0, kMixedReaders, cases, by_family,
               kMixedWeights, kWarmupSeconds, false, false, 1, nullptr);
    measuring.store(true);
    if (!run->args.trace) {
      phase = RunReaders(run, &stack, 0, kMixedReaders, cases, by_family,
                         kMixedWeights, run->args.seconds, false, false, 2,
                         nullptr);
    } else {
      phase = RunReaders(run, &stack, 0, kMixedReaders, cases, by_family,
                         kMixedWeights, run->args.seconds / 2.0, false,
                         false, 2, nullptr);
      const ReadPhase traced = RunReaders(
          run, &stack, 0, kMixedReaders, cases, by_family, kMixedWeights,
          run->args.seconds / 2.0, true, false, 3, &deferred);
      run->PerLayer("trace.overhead_ratio", Ratio(traced.qps(), phase.qps()),
                    "ratio");
    }
    measuring.store(false);
    stop_writer.store(true);
    writer.join();
    run->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
    differential_samples = differential.Stop();
  }
  const txml::ServiceStats after = stack.service->Stats();

  // Past-day answers must not have changed while the writer committed:
  // RunReaders compared each against its precomputed answer; recheck all
  // once more now that the writer has stopped.
  size_t stable = 0;
  for (const QueryCase& c : cases) {
    if (c.family != kQ1Snapshot) continue;
    txml::QueryRequest request;
    request.query_text = c.text;
    request.pretty = false;
    auto response = stack.clients[0].Execute(request);
    run->attempted.fetch_add(1);
    if (!response.ok() || response->payload != c.expected) {
      run->Fail("past-day answer changed: " + c.text);
    } else {
      ++stable;
    }
  }
  run->report.AddCheck("mixed.past_day_answers_stable",
                       run->failed.load() == 0,
                       std::to_string(stable) + " past-day cases rechecked");

  NoteReadMetrics(run, phase, {0, 1});
  run->report.NoteLatency("commit", commit_us);
  run->report.Note("writer_lateness_p50_us", lateness_us.Median(), "us",
                   lateness_us.count());
  run->report.Note("writer_lateness_max_us", lateness_us.Quantile(1.0), "us",
                   lateness_us.count());
  const Windowed windowed = WindowMedians(phase);
  run->report.AddSeries("window_ops_per_s", windowed.rates);
  run->report.AddSeries("window_p50_us", windowed.p50s);
  run->report.AddSeries("window_p90_us", windowed.p90s);
  run->report.Note("ops_per_s", windowed.rate, "1/s");
  run->report.Note("op_p50_us", windowed.p50_us, "us");
  run->report.Note("op_p90_us", windowed.p90_us, "us");
  const double requests = static_cast<double>(phase.requests);
  run->EndToEnd("cpu_us_per_op",
                Ratio((phase.cpu.user + phase.cpu.system) * 1e6, requests),
                "us");
  run->report.Note("cpu_user_us_per_op", Ratio(phase.cpu.user * 1e6, requests),
                   "us");
  run->report.Note("cpu_system_us_per_op",
                   Ratio(phase.cpu.system * 1e6, requests), "us");
  run->EndToEnd("stored_bytes_per_user_byte",
                MeasureStore(stack.service->database()).total() /
                    static_cast<double>(user_bytes),
                "ratio");

  if (run->args.trace) {
    // Walk the sampled reads now that nothing commits.
    for (const Deferred& d : deferred) {
      std::string error;
      if (!run->ladder.WalkQuery(&stack.clients[0], stack.service.get(),
                                 cases[d.case_index], d.real_us, d.stats,
                                 &error)) {
        run->Fail("ladder: " + error);
        break;
      }
    }
    CounterTotals totals;
    totals.Add(before, after);
    TopUpQueryWalks(run, &stack, ladder_cases, IndexByFamily(ladder_cases));
    if (run->ladder.put_walks() < kMinWalks) TopUpPutWalks(run, &stack);
    EmitStoreAndCounters(run, stack.service->database(), totals,
                         differential_samples, docs, db_options.snapshot_every);
    double p50[kFamilyCount] = {};
    p50[kQ1Snapshot] = phase.by_family[kQ1Snapshot].Median();
    p50[kQCurrent] = phase.by_family[kQCurrent].Median();
    run->ladder.Emit(p50, &run->report);
  }
  return 0;
}

// ------------------------------------------------------------- ingest

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

int RunIngest(Run* run) {
  constexpr size_t kWriters = 3, kDocsPerWriter = 4, kVersions = 64;
  constexpr size_t kRestaurants = 60;
  constexpr size_t kDocs = kWriters * kDocsPerWriter;
  const std::vector<GuideDoc> docs = MakeGuides(
      run->args.seed, "http://guide.com/w", kDocs, kVersions, kRestaurants);
  const double user_bytes = static_cast<double>(UserBytes(docs, kVersions));
  run->report.SetStamp(
      "data", "12 docs x 64 daily versions x 60 restaurants per round "
                  "(version 1 of each loaded in set-up, then " +
                  std::to_string(kDocs * (kVersions - 1)) +
                  " puts by 3 writers owning 4 docs each), durable, "
                  "sync_mode=always, 16 commit stripes, fold at 4096 postings");
  const fs::path base =
      fs::path(run->args.out) / ("ingest-" + std::to_string(getpid()));

  Samples setup_s, recovery_s, disk_ratio, puts_per_s, traced_puts_per_s;
  Samples commit_us, round_p50_us, round_p90_us, round_rss_mb;
  Samples round_cpu_us, round_user_us, round_system_us;
  Samples differential;
  CounterTotals totals;
  std::unique_ptr<txml::TemporalQueryService> last_recovered;
  size_t rounds = 0, traced_rounds = 0, verified = 0;
  const Clock::time_point run_start = Clock::now();
  const double seconds = run->args.seconds;
  while (true) {
    const double elapsed = SecondsSince(run_start);
    const bool traced = run->args.trace && rounds > 0 && elapsed >= seconds / 2;
    if (rounds > 0 && elapsed >= seconds &&
        (!run->args.trace || traced_rounds > 0)) {
      break;
    }
    const fs::path dir = base / ("round-" + std::to_string(rounds));
    fs::remove_all(dir);
    txml::ServiceOptions options;
    options.durability.data_dir = dir.string();

    Stack stack;
    std::string error;
    Clock::time_point start = Clock::now();
    auto created = txml::TemporalQueryService::Create(options);
    if (!created.ok()) {
      run->Fail("create: " + created.status().ToString());
      return 1;
    }
    stack.service = std::move(*created);
    if (!StartStack(&stack, kWriters, &error)) {
      run->Fail(error);
      return 1;
    }
    // The loader's base: version 1 of every document, one batch.
    txml::WriteBatchRequest base_batch;
    for (const GuideDoc& doc : docs) {
      txml::WriteBatchItem item;
      item.url = doc.url;
      item.xml_text = doc.versions[0];
      item.timestamp = Day(0);
      base_batch.items.push_back(std::move(item));
    }
    auto based = stack.service->Execute(base_batch);
    if (!based.ok()) {
      run->Fail("base batch: " + based.status().ToString());
      return 1;
    }
    setup_s.Add(SecondsSince(start));
    const txml::ServiceStats before = stack.service->Stats();
    ResetPeakRss();

    // Each writer puts its documents' versions in day order, round robin
    // over its four documents. In a traced round every kWalkEvery-th put
    // is paired with the next one, put in process, to walk the put ladder.
    std::vector<size_t> acks(kDocs, 1);
    std::vector<Samples> latencies(kWriters);
    {
      txml::TemporalQueryService* service = stack.service.get();
      GaugeSampler gauge(service, run->args.trace);
      start = Clock::now();
      const CpuTimes cpu_start = ProcessCpu();
      std::vector<std::thread> writers;
      for (size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          txml::TxmlClient* client = &stack.clients[w];
          size_t n = 0;
          for (size_t i = 1; i < kVersions; ++i) {
            for (size_t j = 0; j < kDocsPerWriter; ++j) {
              const size_t d = w * kDocsPerWriter + j;
              txml::PutRequest put;
              put.url = docs[d].url;
              put.xml_text = docs[d].versions[i];
              put.timestamp = Day(static_cast<int>(i));
              const Clock::time_point sent = Clock::now();
              auto done = client->Execute(put);
              const double us = MicrosSince(sent);
              run->attempted.fetch_add(1);
              if (!done.ok()) {
                run->Fail("put: " + done.status().ToString());
                continue;
              }
              ++acks[d];
              latencies[w].Add(us);
              if (!traced || ++n % kWalkEvery != 1 ||
                  j + 1 >= kDocsPerWriter) {
                continue;
              }
              ++j;
              txml::PutRequest local = put;
              local.url = docs[d + 1].url;
              local.xml_text = docs[d + 1].versions[i];
              const Clock::time_point local_start = Clock::now();
              auto local_done = service->Execute(local);
              const double local_us = MicrosSince(local_start);
              run->attempted.fetch_add(1);
              if (!local_done.ok()) {
                run->Fail("put: " + local_done.status().ToString());
                continue;
              }
              ++acks[d + 1];
              run->ladder.WalkPut(docs[d].versions[i - 1], put.xml_text,
                                  sent, us, local_start, local_us);
            }
          }
        });
      }
      for (std::thread& t : writers) t.join();
      const double write_s = SecondsSince(start);
      size_t acked = 0;
      for (size_t a : acks) acked += a - 1;
      (traced ? traced_puts_per_s : puts_per_s)
          .Add(static_cast<double>(acked) / write_s);
      if (!traced) {
        const CpuTimes cpu_end = ProcessCpu();
        const double user_us = (cpu_end.user - cpu_start.user) * 1e6 /
                               static_cast<double>(acked);
        const double system_us = (cpu_end.system - cpu_start.system) * 1e6 /
                                 static_cast<double>(acked);
        round_user_us.Add(user_us);
        round_system_us.Add(system_us);
        round_cpu_us.Add(user_us + system_us);
      }
      differential.Append(gauge.Stop());
    }
    totals.Add(before, stack.service->Stats());
    if (!traced) {
      Samples round;
      for (const Samples& s : latencies) round.Append(s);
      round_p50_us.Add(round.Median());
      round_p90_us.Add(round.Quantile(0.9));
      commit_us.Append(round);
    }

    // Close without a final checkpoint; reopening replays the whole WAL.
    stack.Close();
    stack.service.reset();
    disk_ratio.Add(static_cast<double>(DirectoryBytes(dir)) / user_bytes);
    start = Clock::now();
    auto recovered = txml::TemporalQueryService::Create(options);
    recovery_s.Add(SecondsSince(start));
    if (!recovered.ok()) {
      run->Fail("recovery: " + recovered.status().ToString());
      return 1;
    }

    // Every acknowledged put is readable, and each document has exactly
    // as many versions as it had acknowledgements.
    const txml::TemporalXmlDatabase& db = (*recovered)->database();
    for (size_t d = 0; d < kDocs; ++d) {
      const txml::VersionedDocument* doc = db.store().FindByUrl(docs[d].url);
      if (doc == nullptr || doc->version_count() != acks[d]) {
        run->Fail("recovered version count differs from acks for " +
                  docs[d].url);
        continue;
      }
      for (size_t v = 1; v <= acks[d]; ++v) {
        auto tree = doc->ReconstructVersion(static_cast<txml::VersionNum>(v));
        if (!tree.ok() ||
            txml::SerializeXml(**tree) != docs[d].versions[v - 1]) {
          run->Fail("acknowledged put not readable: " + docs[d].url +
                    " version " + std::to_string(v));
          continue;
        }
        ++verified;
      }
    }
    if (!traced) round_rss_mb.Add(PeakRssMb());
    ++rounds;
    if (traced) ++traced_rounds;
    last_recovered = std::move(*recovered);
    if (SecondsSince(run_start) < seconds || !run->args.trace ||
        traced_rounds == 0) {
      last_recovered.reset();
      fs::remove_all(dir);
      ReleaseFreedMemory();
    } else {
      break;
    }
  }
  run->report.AddCheck("ingest.acknowledged_puts_readable",
                       run->failed.load() == 0,
                       std::to_string(verified) + " puts verified after " +
                           std::to_string(rounds) + " recoveries");

  run->report.Note("rounds", static_cast<double>(rounds), "count");
  run->report.AddSeries("round_puts_per_s", puts_per_s.values());
  run->report.AddSeries("round_p50_us", round_p50_us.values());
  run->report.AddSeries("round_p90_us", round_p90_us.values());

  run->report.Note("commit_puts_per_s", puts_per_s.Median(), "1/s",
                   puts_per_s.count());
  run->report.NoteLatency("commit", commit_us);
  run->report.Note("recovery_s", recovery_s.Median(), "s", recovery_s.count());
  run->report.Note("stored_bytes_per_user_byte", disk_ratio.Median(), "ratio",
                   disk_ratio.count());
  run->EndToEnd("setup_s", setup_s.Median(), "s");
  run->report.Note("ops_per_s", puts_per_s.Median(), "1/s");
  run->report.Note("op_p50_us", round_p50_us.Median(), "us");
  run->report.Note("op_p90_us", round_p90_us.Median(), "us");
  run->EndToEnd("cpu_us_per_op", round_cpu_us.Median(), "us");
  run->report.Note("cpu_user_us_per_op", round_user_us.Median(), "us");
  run->report.Note("cpu_system_us_per_op", round_system_us.Median(), "us");
  run->EndToEnd("stored_bytes_per_user_byte", disk_ratio.Median(), "ratio");
  run->EndToEnd("peak_rss_mb", round_rss_mb.Median(), "MB");

  if (run->args.trace) {
    if (!puts_per_s.empty()) {
      run->PerLayer("trace.overhead_ratio",
                    traced_puts_per_s.Median() / puts_per_s.Median(), "ratio");
    }
    // The query ladder has no reads to sample here: walk every family over
    // the recovered documents.
    Stack stack;
    stack.service = std::move(last_recovered);
    std::string error;
    if (!StartStack(&stack, 1, &error)) {
      run->Fail(error);
      return 1;
    }
    const std::vector<QueryCase> cases =
        BuildQueryCases(docs, kVersions, {0, 1, 2, 3, 4, 5});
    TopUpQueryWalks(run, &stack, cases, IndexByFamily(cases));
    EmitStoreAndCounters(run, stack.service->database(), totals, differential,
                         docs, stack.service->database().options().snapshot_every);
    const double p50[kFamilyCount] = {};
    run->ladder.Emit(p50, &run->report);
    stack.Close();
  }
  fs::remove_all(base);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1 || args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--src-digest") {
      args->src_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args->workload == "query_mix" ||
                           args->workload == "ingest" ||
                           args->workload == "mixed");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  auto run = std::make_unique<Run>();
  if (!ParseArgs(argc, argv, &run->args)) {
    std::fprintf(stderr,
                 "usage: %s --workload query_mix|ingest|mixed --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--git-sha SHA] "
                 "[--src-digest D]\n",
                 argv[0]);
    return 2;
  }
  fs::create_directories(run->args.out);
  StampCommon(run.get());
  const std::string& workload = run->args.workload;
  if (workload == "query_mix") {
    RunQueryMix(run.get());
  } else if (workload == "ingest") {
    RunIngest(run.get());
  } else {
    RunMixed(run.get());
  }

  Report& report = run->report;
  const uint64_t attempted = run->attempted.load();
  const uint64_t failed = run->failed.load();
  report.set_attempted(attempted);
  report.add_failed(failed);
  report.AddCheck("answers", failed == 0,
                  failed == 0 ? std::to_string(attempted) + " checked"
                              : run->first_error);
  report.Note("ops_failed_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio", attempted);
  const std::string stem = (fs::path(run->args.out) /
                            (workload + "-seed" +
                             std::to_string(run->args.seed) + "-trace" +
                             (run->args.trace ? "1" : "0")))
                               .string();
  if (run->args.trace) run->tracer.WriteJsonl(stem + "-spans.jsonl");
  report.Emit(stem + ".json");
  return report.correct() ? 0 : 1;
}
