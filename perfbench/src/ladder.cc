#include "src/ladder.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "src/diff/diff.h"
#include "src/lang/parser.h"
#include "src/net/wire.h"
#include "src/query/diff_op.h"
#include "src/query/planner.h"
#include "src/query/scan.h"
#include "src/query/time_ops.h"
#include "src/util/strings.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace perfbench {

uint64_t Tracer::NextRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_request_;
}

void Tracer::Record(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void Tracer::RecordRequest(int family, Clock::time_point start,
                           Clock::time_point end) {
  const Span span{0, "request", family, At(start), At(end), -1};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  spans_.back().request = ++next_request_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"request\": %llu, \"layer\": \"%s\", \"family\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d}\n",
                  static_cast<unsigned long long>(s.request), s.layer,
                  s.family < 0 ? "put" : FamilyName(s.family), s.start_us,
                  s.end_us, s.parent);
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

/// The scan pattern the executor builds for a FROM item (BuildPattern in
/// src/lang/executor.cc): a descendant-or-self first step, child steps, the
/// last one projected, and a single-word equality filter grafted below it
/// as a word test.
txml::Pattern ScanPattern(const txml::Query& query) {
  using txml::PatternNode;
  const txml::FromItem& item = query.from[0];
  std::unique_ptr<PatternNode> root;
  PatternNode* tail = nullptr;
  const auto& steps = item.path.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    auto node = PatternNode::Make(PatternNode::Test::kElementName,
                                  i == 0 ? PatternNode::Axis::kDescendantOrSelf
                                         : PatternNode::Axis::kChild,
                                  steps[i].name);
    if (root == nullptr) {
      root = std::move(node);
      tail = root.get();
    } else {
      tail = tail->AddChild(std::move(node));
    }
  }
  tail->projected = true;
  const txml::Expr* where = query.where.get();
  if (where != nullptr && where->kind == txml::Expr::Kind::kBinary &&
      where->op == txml::Expr::Op::kEq &&
      where->lhs->kind == txml::Expr::Kind::kPath &&
      where->rhs->kind == txml::Expr::Kind::kString) {
    std::vector<std::string> words = txml::TokenizeWords(where->rhs->str);
    if (words.size() == 1) {
      PatternNode* anchor = tail;
      for (const txml::PathStep& step : where->lhs->path->steps()) {
        anchor = anchor->AddChild(PatternNode::Make(
            PatternNode::Test::kElementName, PatternNode::Axis::kChild,
            step.name));
      }
      anchor->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                         PatternNode::Axis::kSelf, words[0]));
    }
  }
  return txml::Pattern(std::move(root));
}

class SpanBuilder {
 public:
  SpanBuilder(Tracer* tracer, int family)
      : tracer_(tracer), request_(tracer->NextRequest()), family_(family) {}
  /// Opens a span; returns its index.
  int Begin(const char* layer, int parent) {
    spans_.push_back(Span{request_, layer, family_, tracer_->Now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `i`; returns its duration in µs.
  double End(int i) {
    spans_[static_cast<size_t>(i)].end_us = tracer_->Now();
    return spans_[static_cast<size_t>(i)].end_us -
           spans_[static_cast<size_t>(i)].start_us;
  }
  void Flush() { tracer_->Record(spans_); }

 private:
  Tracer* tracer_;
  uint64_t request_;
  int family_;
  std::vector<Span> spans_;
};

bool Mismatch(const QueryCase& c, const std::string& payload,
              const char* layer, std::string* error) {
  if (c.expected.empty() || payload == c.expected) return false;
  *error = std::string(layer) + " answer differs from the expected one for: " +
           c.text;
  return true;
}

}  // namespace

bool Ladder::WalkQuery(txml::TxmlClient* client,
                       txml::TemporalQueryService* service,
                       const QueryCase& c,
                       double real_us, const txml::ExecStats& real_stats,
                       std::string* error) {
  QueryWalk walk;
  walk.family = c.family;
  walk.real_us = real_us;
  walk.real_stats = real_stats;
  SpanBuilder spans(tracer_, c.family);
  txml::QueryRequest request;
  request.query_text = c.text;
  request.pretty = false;

  const int net = spans.Begin("net", -1);
  auto remote = client->Execute(request);
  walk.net_us = spans.End(net);
  if (!remote.ok()) {
    *error = "net: " + remote.status().ToString();
    return false;
  }
  if (Mismatch(c, remote->payload, "net", error)) return false;
  walk.response_bytes = remote->payload.size();

  const int svc = spans.Begin("service", net);
  auto local = service->Execute(request);
  walk.service_us = spans.End(svc);
  if (!local.ok()) {
    *error = "service: " + local.status().ToString();
    return false;
  }
  if (Mismatch(c, local->payload, "service", error)) return false;

  const txml::TemporalXmlDatabase& db = service->database();
  const txml::Timestamp epoch = service->Epoch();
  txml::ExecStats core_stats;
  const int core = spans.Begin("core", svc);
  auto result = db.QueryAt(c.text, epoch, &core_stats);
  walk.core_us = spans.End(core);
  walk.core_stats = core_stats;
  if (!result.ok()) {
    *error = "core: " + result.status().ToString();
    return false;
  }
  const int xml = spans.Begin("xml", svc);
  std::string serialized = txml::SerializeXml(*result->root());
  walk.xml_us = spans.End(xml);
  if (Mismatch(c, serialized, "core", error)) return false;

  const int lang = spans.Begin("lang", core);
  auto parsed = txml::ParseQuery(c.text);
  walk.lang_us = spans.End(lang);
  if (!parsed.ok()) {
    *error = "lang: " + parsed.status().ToString();
    return false;
  }

  // query: the scan arm the planner picks, then the operator on its matches.
  const txml::QueryContext ctx = db.Context();
  const txml::FromItem& item = parsed->from[0];
  const txml::VersionedDocument* doc = db.store().FindByUrl(item.url);
  if (doc == nullptr) {
    *error = "no document " + item.url;
    return false;
  }
  const txml::Pattern pattern = ScanPattern(*parsed);
  const std::vector<const txml::VersionedDocument*> scope = {doc};
  txml::ScanKind kind = txml::ScanKind::kCurrent;
  txml::Timestamp at = epoch;
  if (item.mode == txml::FromItem::Mode::kSnapshot) {
    kind = txml::ScanKind::kSnapshot;
    at = item.snapshot_time->date;
  } else if (item.mode == txml::FromItem::Mode::kEvery) {
    kind = txml::ScanKind::kAll;
  }
  const int query = spans.Begin("query", core);
  const Clock::time_point scan_start = Clock::now();
  const txml::ScanPlan plan =
      txml::PlanScan(ctx, pattern, kind, scope, txml::ScanStrategy::kAuto);
  const bool traverse = plan.strategy == txml::ScanStrategy::kTraversal;
  txml::StatusOr<std::vector<txml::ScanMatch>> matches =
      std::vector<txml::ScanMatch>{};
  switch (kind) {
    case txml::ScanKind::kCurrent:
      matches = traverse ? txml::PatternScanCurrentTraversal(ctx, pattern, scope)
                         : txml::PatternScanCurrent(ctx, pattern);
      break;
    case txml::ScanKind::kSnapshot:
      matches = traverse ? txml::TPatternScanTraversal(ctx, pattern, at, scope)
                         : txml::TPatternScan(ctx, pattern, at);
      break;
    default:
      matches = traverse ? txml::TPatternScanAllTraversal(ctx, pattern, scope)
                         : txml::TPatternScanAll(ctx, pattern);
      break;
  }
  walk.scan_us = MicrosSince(scan_start);
  if (!matches.ok()) {
    *error = "query: " + matches.status().ToString();
    return false;
  }
  std::set<txml::VersionNum> versions;
  txml::VersionNum newest = 0;
  const Clock::time_point op_start = Clock::now();
  for (const txml::ScanMatch& m : *matches) {
    if (m.doc_id != doc->doc_id()) continue;
    txml::Teid teid = m.ProjectedTeid(pattern);
    // As the executor does, anchor a snapshot binding at the snapshot
    // time, so PREVIOUS() resolves the version before the one queried.
    if (kind == txml::ScanKind::kSnapshot) teid.timestamp = at;
    if (c.family == kQLifetime) {
      auto created = txml::CreTime(ctx, teid, txml::LifetimeStrategy::kAuto);
      if (!created.ok()) {
        *error = "CreTime: " + created.status().ToString();
        return false;
      }
    } else if (c.family == kQDiff) {
      auto previous = txml::PreviousTS(ctx, teid);
      if (previous.ok() && previous->has_value()) {
        auto delta = txml::DiffOp(ctx, txml::Teid{teid.eid, **previous}, teid);
        if (!delta.ok()) {
          *error = "DiffOp: " + delta.status().ToString();
          return false;
        }
      }
    } else if (c.family == kQ3Every) {
      // The [EVERY] walk starts from the newest matched version.
      newest = std::max(newest, std::min<txml::VersionNum>(
                                    m.end_version - 1, doc->version_count()));
    }
  }
  const double op_us = MicrosSince(op_start);
  if (c.family == kQLifetime) walk.lifetime_us = op_us;
  if (c.family == kQDiff) walk.diff_us = op_us;
  spans.End(query);

  // index: the posting lists the index join reads, one lookup per term.
  // A traversal scan reads no posting list, so its walk charges nothing
  // to this layer.
  if (!traverse) {
    const int index = spans.Begin("index", query);
    for (const txml::PatternNode* node : pattern.NodesPreorder()) {
      const txml::TermKind term_kind =
          node->test == txml::PatternNode::Test::kWord
              ? txml::TermKind::kWord
              : txml::TermKind::kElementName;
      std::vector<const txml::Posting*> postings;
      if (kind == txml::ScanKind::kCurrent) {
        postings = ctx.fti->LookupCurrent(term_kind, node->term);
      } else if (kind == txml::ScanKind::kSnapshot) {
        postings = ctx.fti->LookupT(term_kind, node->term, at);
      } else {
        postings = ctx.fti->LookupH(term_kind, node->term);
      }
      walk.postings += postings.size();
    }
    walk.index_us = spans.End(index);
  }

  // storage: the versions the request reads, reconstructed uncached.
  if (newest > 0) versions.insert(newest);
  if (kind == txml::ScanKind::kSnapshot) {
    auto v = doc->delta_index().VersionAt(at);
    if (v.has_value()) {
      versions.insert(*v);
      if (c.family == kQDiff && *v > 1) versions.insert(*v - 1);
    }
  } else if (kind == txml::ScanKind::kCurrent) {
    versions.insert(doc->version_count());
  }
  const int storage = spans.Begin("storage", core);
  for (txml::VersionNum v : versions) {
    txml::VersionedDocument::ReconstructStats rs;
    auto tree = doc->ReconstructVersion(v, &rs);
    if (!tree.ok()) {
      *error = "storage: " + tree.status().ToString();
      return false;
    }
    walk.deltas += rs.deltas_applied;
  }
  const double storage_total = spans.End(storage);
  walk.reconstructs_timed = versions.size();
  walk.reconstruct_us =
      versions.empty() ? 0 : storage_total / static_cast<double>(versions.size());
  // Charged at the share of the real request's snapshot lookups that
  // missed the cache (an [EVERY] walk never looks up: share 1).
  const double lookups = static_cast<double>(
      real_stats.snapshot_reconstructions + real_stats.snapshot_cache_hits);
  walk.storage_us =
      lookups > 0 ? storage_total *
                        static_cast<double>(real_stats.snapshot_reconstructions) /
                        lookups
                  : 0;

  // net codec: the request frame and the response header, both ways.
  auto codec_start = Clock::now();
  std::string encoded = txml::EncodeQueryRequest(request);
  auto decoded = txml::DecodeQueryRequest(encoded);
  txml::ResponseHeader header;
  header.payload_bytes = remote->payload.size();
  header.stats = remote->stats;
  std::string encoded_header = txml::EncodeResponseHeader(header);
  auto decoded_header = txml::DecodeResponseHeader(encoded_header);
  walk.codec_us = MicrosSince(codec_start);
  if (!decoded.ok() || !decoded_header.ok()) {
    *error = "codec round trip failed";
    return false;
  }
  spans.Flush();
  std::lock_guard<std::mutex> lock(mu_);
  queries_.push_back(walk);
  return true;
}

void Ladder::WalkPut(const std::string& previous, const std::string& text,
                     Clock::time_point client_start, double client_us,
                     Clock::time_point service_start, double service_us) {
  PutWalk walk;
  walk.client_us = client_us;
  walk.service_us = service_us;
  std::vector<Span> spans;
  const uint64_t wire_request = tracer_->NextRequest();
  const uint64_t local_request = tracer_->NextRequest();
  spans.push_back(Span{wire_request, "net", -1, tracer_->At(client_start),
                       tracer_->At(client_start) + client_us, -1});
  spans.push_back(Span{local_request, "service", -1,
                       tracer_->At(service_start),
                       tracer_->At(service_start) + service_us, -1});

  double start = tracer_->Now();
  auto parsed = txml::ParseXml(text);
  walk.parse_us = tracer_->Now() - start;
  spans.push_back(Span{local_request, "xml", -1, start, start + walk.parse_us,
                       1});
  if (parsed.ok() && !previous.empty()) {
    auto old_doc = txml::ParseXml(previous);
    if (old_doc.ok()) {
      std::unique_ptr<txml::XmlNode> old_root = old_doc->ReleaseRoot();
      std::unique_ptr<txml::XmlNode> new_root = parsed->ReleaseRoot();
      txml::XidAllocator xids;
      txml::AssignFreshXids(old_root.get(), &xids);
      start = tracer_->Now();
      auto diff = txml::DiffTrees(*old_root, new_root.get(), &xids,
                                  Day(1));
      walk.diff_us = tracer_->Now() - start;
      spans.push_back(Span{local_request, "diff", -1, start,
                           start + walk.diff_us, 1});
      if (diff.ok()) walk.edit_ops = diff->script.size();
    }
  }
  tracer_->Record(spans);
  std::lock_guard<std::mutex> lock(mu_);
  puts_.push_back(walk);
}

size_t Ladder::query_walks(int family) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const QueryWalk& w : queries_) n += w.family == family ? 1 : 0;
  return n;
}

size_t Ladder::put_walks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return puts_.size();
}

void Ladder::Emit(const double family_p50_us[kFamilyCount],
                  Report* report) const {
  std::lock_guard<std::mutex> lock(mu_);
  static const char* const kSelfLayers[] = {
      "net", "service", "core", "lang", "query", "index", "storage", "xml"};
  double bytes = 0, postings = 0, deltas = 0, reconstructs_timed = 0;
  double reconstructions = 0, scans_index = 0, scans = 0, considered = 0;
  double emitted = 0;
  Samples lifetime, diff_op;
  for (int f = 0; f < kFamilyCount; ++f) {
    Samples overhead, codec, svc, svc_self, core, lang, scan, index, rebuild,
        xml, real;
    Samples self[8];
    for (const QueryWalk& w : queries_) {
      if (w.family != f) continue;
      const double query_total = w.scan_us + w.lifetime_us + w.diff_us;
      overhead.Add(w.net_us - w.service_us);
      codec.Add(w.codec_us);
      svc.Add(w.service_us);
      svc_self.Add(w.service_us - w.core_us - w.xml_us);
      core.Add(w.core_us);
      lang.Add(w.lang_us);
      scan.Add(w.scan_us);
      index.Add(w.index_us);
      rebuild.Add(w.reconstruct_us);
      xml.Add(w.xml_us);
      real.Add(w.real_us);
      const double selves[8] = {w.net_us - w.service_us,
                                w.service_us - w.core_us - w.xml_us,
                                w.core_us - w.lang_us - query_total,
                                w.lang_us,
                                query_total - w.index_us,
                                w.index_us,
                                w.storage_us,
                                w.xml_us};
      for (int l = 0; l < 8; ++l) self[l].Add(selves[l]);
      if (f == kQLifetime) lifetime.Add(w.lifetime_us);
      if (f == kQDiff) diff_op.Add(w.diff_us);
      bytes += static_cast<double>(w.response_bytes);
      postings += static_cast<double>(w.postings);
      deltas += static_cast<double>(w.deltas);
      reconstructs_timed += static_cast<double>(w.reconstructs_timed);
      reconstructions +=
          static_cast<double>(w.real_stats.snapshot_reconstructions);
      scans_index += static_cast<double>(w.core_stats.scans_index);
      scans += static_cast<double>(w.core_stats.scans_index +
                                   w.core_stats.scans_traversal);
      considered += static_cast<double>(w.core_stats.rows_considered);
      emitted += static_cast<double>(w.core_stats.rows_emitted);
    }
    const std::string suffix = std::string(".") + FamilyName(f);
    report->Gate("net.overhead_us" + suffix, overhead.Median(), "us");
    report->Gate("net.codec_us" + suffix, codec.Median(), "us");
    report->Gate("service.query_us" + suffix, svc.Median(), "us");
    report->Gate("service.query_self_us" + suffix, svc_self.Median(), "us");
    report->Gate("core.query_at_us" + suffix, core.Median(), "us");
    report->Gate("lang.parse_us" + suffix, lang.Median(), "us");
    report->Gate("query.scan_us" + suffix, scan.Median(), "us");
    report->Gate("index.lookup_us" + suffix, index.Median(), "us");
    report->Gate("storage.reconstruct_us" + suffix, rebuild.Median(), "us");
    report->Gate("xml.serialize_us" + suffix, xml.Median(), "us");
    double explained = 0;
    for (int l = 0; l < 8; ++l) {
      explained += self[l].Median();
      report->Note(std::string("ladder.self_us.") + kSelfLayers[l] + suffix,
                   self[l].Median(), "us", self[l].count());
    }
    const double e2e = family_p50_us[f] > 0 ? family_p50_us[f] : real.Median();
    report->Note("ladder.family_p50_us" + suffix, e2e, "us");
    report->Gate("ladder.unexplained_us" + suffix, e2e - explained, "us");
  }
  const double walks = static_cast<double>(queries_.size());
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  report->Gate("net.response_bytes", ratio(bytes, walks), "bytes");
  report->Gate("query.lifetime_us", lifetime.Median(), "us");
  report->Gate("query.diff_us", diff_op.Median(), "us");
  report->Gate("query.scan_index_share", ratio(scans_index, scans), "ratio");
  report->Gate("query.rows_considered_per_emitted",
               ratio(considered, emitted), "ratio");
  report->Gate("index.postings_per_query", ratio(postings, walks), "count");
  report->Gate("storage.deltas_per_reconstruct",
               ratio(deltas, reconstructs_timed), "count");
  report->Gate("storage.reconstructions_per_query",
               ratio(reconstructions, walks), "count");

  Samples client, service, parse, diff;
  double edit_ops = 0;
  for (const PutWalk& w : puts_) {
    client.Add(w.client_us);
    service.Add(w.service_us);
    parse.Add(w.parse_us);
    diff.Add(w.diff_us);
    edit_ops += static_cast<double>(w.edit_ops);
  }
  report->Gate("net.put_overhead_us", client.Median() - service.Median(),
               "us");
  report->Gate("service.put_us", service.Median(), "us");
  report->Gate("xml.parse_us", parse.Median(), "us");
  report->Gate("diff.diff_us", diff.Median(), "us");
  report->Gate("diff.edit_ops_per_put",
               ratio(edit_ops, static_cast<double>(puts_.size())), "count");
}

}  // namespace perfbench
