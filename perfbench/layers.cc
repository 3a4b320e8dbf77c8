#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/engine.h"
#include "calculus/services.h"
#include "mirror.h"
#include "obs/exposition.h"
#include "server/wire.h"
#include "views/views.h"
#include "workloads.h"

namespace perfbench {

using oodb::Result;
using oodb::Status;
namespace obs = oodb::obs;

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- The daemon's METRICS, as deltas over the traced phase ---------------

using SeriesMap = std::map<std::string, obs::Sample>;

std::string SeriesKey(const obs::Sample& s) {
  std::string key = s.name;
  for (const auto& [k, v] : s.labels) key += "|" + k + "=" + v;
  return key;
}

// Whether `s` carries label `key` with `value` (any value when empty).
bool HasLabel(const obs::Sample& s, const std::string& key,
              const std::string& value) {
  for (const auto& [k, v] : s.labels) {
    if (k == key && (value.empty() || v == value)) return true;
  }
  return false;
}

// Adds sign * every sample of `text` that `keep` accepts into `into`.
template <typename Keep>
Status Accumulate(SeriesMap* into, const std::string& text, double sign,
                  Keep keep) {
  OODB_ASSIGN_OR_RETURN(std::vector<obs::Sample> samples,
                        obs::ParseExposition(text));
  for (obs::Sample& s : samples) {
    if (!keep(s)) continue;
    auto [it, inserted] = into->try_emplace(SeriesKey(s), s);
    if (inserted) {
      it->second.value = sign * s.value;
    } else {
      it->second.value += sign * s.value;
    }
  }
  return Status::Ok();
}

double Sum(const SeriesMap& series, const std::string& name) {
  double total = 0;
  for (const auto& [key, s] : series) {
    if (s.name == name) total += s.value;
  }
  return total;
}

obs::HistogramSummary Histogram(const SeriesMap& series,
                                const std::string& name) {
  std::vector<obs::Sample> samples;
  for (const auto& [key, s] : series) {
    if (s.name.rfind(name, 0) == 0) samples.push_back(s);
  }
  obs::HistogramSummary merged;
  for (const obs::HistogramSummary& h : obs::SummarizeHistograms(samples)) {
    if (h.name == name && h.count > merged.count) merged = h;
  }
  return merged;
}

// ---- The daemon's TRACE (slow-query log at threshold 0) ------------------

struct TraceEntry {
  std::string verb;
  uint64_t total_ns = 0;
  uint64_t phases_ns = 0;  // sum of every named phase
  uint64_t translate_ns = 0;
};

uint64_t NumberAfter(const std::string& line, const std::string& key,
                     size_t from = 0) {
  const size_t at = line.find(key, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

std::vector<TraceEntry> ParseTrace(const std::string& text) {
  std::vector<TraceEntry> entries;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    const size_t verb = line.find("\"verb\":\"");
    const size_t phases = line.find("\"phases\":{");
    if (verb == std::string::npos || phases == std::string::npos) continue;
    TraceEntry e;
    e.verb = line.substr(verb + 8, line.find('"', verb + 8) - verb - 8);
    e.total_ns = NumberAfter(line, "\"total_ns\":");
    e.translate_ns = NumberAfter(line, "\"translate_ns\":", phases);
    const size_t close = line.find('}', phases);
    for (size_t p = line.find("_ns\":", phases); p < close;
         p = line.find("_ns\":", p + 1)) {
      e.phases_ns += std::strtoull(line.c_str() + p + 5, nullptr, 10);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

bool IsMutationVerb(const std::string& verb) {
  return verb == "LOAD" || verb == "STATE" || verb == "VIEW" ||
         verb == "UNDEFINE";
}

// The workloads' read verbs, the ones request_p50_us times.
bool IsReadVerb(const std::string& verb) {
  return verb == "CHECK" || verb == "BCHECK" || verb == "OPTIMIZE" ||
         verb == "CLASSIFY";
}

// ---- In-process probes ----------------------------------------------------

struct Probe {
  double parse_us = 0, build_us = 0, query_us = 0;
  double individuals_per_run = 0;
  double insert_us_p50 = 0, remove_us_p50 = 0, checks_per_insert = 0;
  double materialize_us_p50 = 0, choose_plan_us_p50 = 0, checks_per_plan = 0;
};

uint64_t Ns(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Times the dl, engine, classifier and views layers on the workload's
// own schema (and a generated state for the views).
Result<Probe> RunProbes(const oodb::gen::GeneratedDl& dl, uint64_t seed) {
  Probe probe;
  constexpr int kReps = 5;
  const std::string state = GenerateState(dl, seed);
  std::vector<double> parse, build, query;
  std::unique_ptr<Mirror> m;
  for (int rep = 0; rep < kReps; ++rep) {
    Mirror::BuildTimes t;
    OODB_ASSIGN_OR_RETURN(m, Mirror::Build(dl, state, &t));
    parse.push_back(t.parse_us);
    build.push_back(t.build_schema_us);
    query.push_back(t.query_concept_us);
  }
  probe.parse_us = Median(parse);
  probe.build_us = Median(build);
  probe.query_us = Median(query);

  oodb::Rng rng(seed);
  std::vector<size_t> sample(m->queries.size());
  for (size_t q = 0; q < sample.size(); ++q) sample[q] = q;
  std::shuffle(sample.begin(), sample.end(), rng.engine());
  sample.resize(std::min<size_t>(sample.size(), 64));
  const double n = static_cast<double>(sample.size());

  // Engine: one batch completion per sampled query against every target
  // the pre-filter lets through, as SubsumesBatch runs it.
  {
    oodb::calculus::CompletionEngine engine(*m->sigma);
    double individuals = 0;
    size_t runs = 0;
    for (size_t q : sample) {
      const oodb::ql::ConceptId c = m->query_concepts[q];
      std::vector<oodb::ql::ConceptId> live;
      for (oodb::ql::ConceptId d : m->target_concepts) {
        if (m->checker->prefilter().Check(c, d) !=
            oodb::calculus::PreFilterVerdict::kReject) {
          live.push_back(d);
        }
      }
      if (live.empty()) continue;
      OODB_RETURN_IF_ERROR(engine.RunBatch(c, live));
      individuals += static_cast<double>(engine.stats().individuals);
      ++runs;
    }
    probe.individuals_per_run = Ratio(individuals, static_cast<double>(runs));
  }

  // Classifier: the resident taxonomy, then Remove + Insert per sampled
  // query (what UNDEFINE and VIEW do on a warm session).
  {
    oodb::calculus::Classifier classifier(*m->checker);
    for (const std::string& name : m->TaxonomyNames()) {
      OODB_ASSIGN_OR_RETURN(oodb::ql::ConceptId c, m->ConceptOf(name));
      OODB_RETURN_IF_ERROR(classifier.Add(m->symbols.Find(name), c));
    }
    OODB_RETURN_IF_ERROR(classifier.Classify());
    Samples insert_ns, remove_ns;
    double checks = 0;
    for (size_t q : sample) {
      const oodb::Symbol s = m->symbols.Find(m->queries[q]);
      const Clock::time_point t0 = Clock::now();
      OODB_RETURN_IF_ERROR(classifier.Remove(s));
      const Clock::time_point t1 = Clock::now();
      OODB_RETURN_IF_ERROR(classifier.Insert(s, m->query_concepts[q]));
      const Clock::time_point t2 = Clock::now();
      remove_ns.Add(Ns(t1 - t0));
      insert_ns.Add(Ns(t2 - t1));
      checks += static_cast<double>(
          classifier.last_op_stats().checks_performed);
    }
    probe.insert_us_p50 = insert_ns.Quantile(0.5) / 1000;
    probe.remove_us_p50 = remove_ns.Quantile(0.5) / 1000;
    probe.checks_per_insert = Ratio(checks, n);
  }

  // Views: materialize every query over the state, then plan the sampled
  // queries against the full catalog.
  {
    oodb::views::ViewCatalog catalog(m->database.get(), m->translator.get());
    Samples materialize_ns;
    for (const std::string& q : m->queries) {
      const Clock::time_point t0 = Clock::now();
      OODB_RETURN_IF_ERROR(catalog.DefineView(m->symbols.Find(q)));
      materialize_ns.Add(Ns(Clock::now() - t0));
    }
    oodb::views::Optimizer optimizer(m->database.get(), &catalog, *m->sigma,
                                     m->translator.get());
    Samples plan_ns;
    double checks = 0;
    for (size_t q : sample) {
      const Clock::time_point t0 = Clock::now();
      OODB_ASSIGN_OR_RETURN(
          oodb::views::QueryPlan plan,
          optimizer.ChoosePlan(m->symbols.Find(m->queries[q])));
      plan_ns.Add(Ns(Clock::now() - t0));
      checks += static_cast<double>(plan.subsumption_checks);
    }
    probe.materialize_us_p50 = materialize_ns.Quantile(0.5) / 1000;
    probe.choose_plan_us_p50 = plan_ns.Quantile(0.5) / 1000;
    probe.checks_per_plan = Ratio(checks, n);
  }
  return probe;
}

// Nanoseconds per call of `fn` over `n` items, repeated for >= 20 ms.
template <typename Fn>
double NsPerItem(size_t n, Fn fn) {
  if (n == 0) return 0;
  size_t items = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  while (t1 - t0 < std::chrono::milliseconds(20)) {
    for (size_t i = 0; i < n; ++i) fn(i);
    items += n;
    t1 = Clock::now();
  }
  return Us(t1 - t0) * 1000 / static_cast<double>(items);
}

}  // namespace

Result<Metrics> LayerMetrics(TracedRun& run) {
  namespace server = oodb::server;
  Metrics m;
  auto put = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, {value, unit}});
  };

  const std::string& session = run.session;
  auto is_session = [&](const obs::Sample& s) {
    return HasLabel(s, "session", session);
  };
  auto is_server = [](const obs::Sample& s) {
    return !HasLabel(s, "session", "");
  };
  SeriesMap ses, srv;
  OODB_RETURN_IF_ERROR(Accumulate(&ses, run.metrics_after, 1, is_session));
  OODB_RETURN_IF_ERROR(Accumulate(&ses, run.metrics_before, -1, is_session));
  for (const std::string& text : run.round_scrapes) {
    OODB_RETURN_IF_ERROR(Accumulate(&ses, text, 1, is_session));
  }
  OODB_RETURN_IF_ERROR(Accumulate(&srv, run.metrics_after, 1, is_server));
  OODB_RETURN_IF_ERROR(Accumulate(&srv, run.metrics_before, -1, is_server));

  // Newest first: the daemon's ring of the last requests it finished.
  const std::vector<TraceEntry> trace = ParseTrace(run.trace_lines);
  Samples translate, unattributed, mutation;
  for (const TraceEntry& e : trace) {
    unattributed.Add(e.total_ns > e.phases_ns ? e.total_ns - e.phases_ns : 0);
    if (IsMutationVerb(e.verb)) {
      mutation.Add(e.total_ns);
    } else if (IsReadVerb(e.verb)) {
      translate.Add(e.translate_ns);
    }
  }

  // server: the loop's share of a read is its round trip minus the time
  // the daemon accounts to it. Both sides cover the same requests, the
  // phase's last k: the ring holds the last ones the daemon finished, the
  // client's tail the last ones it got replies for (drain included), so
  // the two differ only by the frames in flight at the boundary.
  LoadResult& load = run.load;
  const size_t k = std::min(trace.size(), load.tail.size());
  Samples trace_read_total, client_read;
  for (size_t i = 0; i < k; ++i) {
    if (IsReadVerb(trace[i].verb)) trace_read_total.Add(trace[i].total_ns);
    const TailSample& t = load.tail[load.tail.size() - 1 - i];
    if (!t.mutation) client_read.Add(t.ns);
  }
  auto queue_us = [&](double q) {
    return std::max(0.0, client_read.Quantile(q) -
                             trace_read_total.Quantile(q)) /
           1000;
  };
  put("server.loop_queue_us_p50", queue_us(0.5), "us");
  put("server.loop_queue_us_p99", queue_us(0.99), "us");
  put("server.busy", Sum(srv, "oodb_server_busy_total"), "count");
  put("server.deadline_expired", Sum(srv, "oodb_server_deadline_expired_total"),
      "count");
  put("server.loop_ready_batch_mean",
      Ratio(Sum(srv, "oodb_loop_ready_batch_sum"),
            Sum(srv, "oodb_loop_ready_batch_count")),
      "events");

  // server/wire: the run's own frames through the codec.
  std::vector<server::BinaryReply> replies;
  for (const std::string& frame : load.reply_frames) {
    size_t consumed = 0;
    std::string error;
    server::BinaryReply r;
    if (server::ParseBinaryReply(frame, &consumed, &r, &error) ==
        server::ParseStatus::kFrame) {
      replies.push_back(std::move(r));
    }
  }
  size_t sink = 0;
  put("wire.parse_request_ns",
      NsPerItem(load.request_frames.size(),
                [&](size_t i) {
                  size_t consumed = 0;
                  std::string error;
                  server::BinaryRequest req;
                  server::ParseBinaryRequest(load.request_frames[i], &consumed,
                                             &req, &error);
                  sink += req.tokens.size();
                }),
      "ns");
  put("wire.encode_reply_ns",
      NsPerItem(replies.size(),
                [&](size_t i) {
                  sink += server::EncodeBinaryReply(replies[i].id,
                                                    replies[i].reply)
                              .size();
                }),
      "ns");
  if (sink == 0 && !load.request_frames.empty()) {
    return oodb::InternalError("wire probe decoded nothing");
  }
  put("wire.bytes_per_check",
      Ratio(static_cast<double>(load.bytes_out + load.bytes_in),
            static_cast<double>(load.checks)),
      "bytes");

  // server/session
  put("session.translate_ns_p50", translate.Quantile(0.5), "ns");
  put("session.unattributed_ns_p50", unattributed.Quantile(0.5), "ns");
  put("session.mutation_ns_p50", mutation.Quantile(0.5), "ns");

  OODB_ASSIGN_OR_RETURN(Probe probe, RunProbes(*run.probe_dl, run.seed));

  // dl
  put("dl.parse_analyze_us", probe.parse_us, "us");
  put("dl.build_schema_us", probe.build_us, "us");
  put("dl.query_concept_us", probe.query_us, "us");

  // calculus.prefilter
  const double pf_checks = Sum(ses, "oodb_prefilter_checks_total");
  const double pf_rejects = Sum(ses, "oodb_prefilter_rejections_total");
  put("prefilter.checks", pf_checks, "count");
  put("prefilter.rejections", pf_rejects, "count");
  put("prefilter.reject_ratio", Ratio(pf_rejects, pf_checks), "ratio");

  // calculus.memo
  const double hits = Sum(ses, "oodb_memo_hits_total");
  const double misses = Sum(ses, "oodb_memo_misses_total");
  put("memo.hits", hits, "count");
  put("memo.misses", misses, "count");
  put("memo.hit_ratio", Ratio(hits, hits + misses), "ratio");
  put("memo.evictions", Sum(ses, "oodb_memo_evictions_total"), "count");

  // calculus.engine
  const double runs = Sum(ses, "oodb_checker_engine_runs_total");
  const obs::HistogramSummary run_hist =
      Histogram(ses, "oodb_engine_run_seconds");
  put("engine.runs", runs, "count");
  put("engine.run_us_p50", run_hist.p50 * 1e6, "us");
  put("engine.run_us_p99", run_hist.p99 * 1e6, "us");
  put("engine.pairs_per_run", Ratio(misses - pf_rejects, runs), "pairs");
  put("engine.individuals_per_run", probe.individuals_per_run, "count");
  put("engine.rule_applications_per_run",
      Ratio(Sum(ses, "oodb_engine_rule_applications_total"), runs), "count");
  put("engine.pool_reuse_ratio",
      Ratio(Sum(ses, "oodb_engine_pool_reuses_total"),
            Sum(ses, "oodb_engine_pool_acquires_total")),
      "ratio");

  // calculus.classifier
  put("classifier.insert_us_p50", probe.insert_us_p50, "us");
  put("classifier.remove_us_p50", probe.remove_us_p50, "us");
  put("classifier.checks_per_insert", probe.checks_per_insert, "count");

  // views / db
  put("views.materialize_us_p50", probe.materialize_us_p50, "us");
  put("views.choose_plan_us_p50", probe.choose_plan_us_p50, "us");
  put("views.checks_per_plan", probe.checks_per_plan, "count");

  // obs
  put("obs.trace_overhead_ratio",
      Ratio(run.untraced_checks_per_s,
            Ratio(static_cast<double>(load.checks), load.elapsed_s)),
      "ratio");
  return m;
}

}  // namespace perfbench
