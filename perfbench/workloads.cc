#include "workloads.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "base/rng.h"
#include "base/strings.h"
#include "server/wire.h"

namespace perfbench {

using oodb::Result;
using oodb::Status;
using oodb::StrCat;
namespace server = oodb::server;

namespace {

// splitmix64: independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Every workload's main schema: 40 classes, 12 attributes, 200 queries,
// so a catalog row is 240 targets.
oodb::gen::GeneratedDl GenerateSchema(uint64_t seed) {
  oodb::Rng rng(seed);
  oodb::gen::DlGenOptions options;
  options.num_classes = 40;
  options.num_attrs = 12;
  options.num_queries = 200;
  return oodb::gen::GenerateDlSource(rng, options);
}

// Encoders stamp the request id at bytes [4, 12) of every binary frame,
// so a frame encoded once can be re-sent under any id.
void StampId(std::string* frame, uint64_t id) {
  for (int i = 0; i < 8; ++i) {
    (*frame)[4 + i] = static_cast<char>((id >> (8 * i)) & 0xff);
  }
}

Status Expect(const Result<std::string>& reply, const std::string& prefix,
              const std::string& what) {
  if (!reply.ok()) return reply.status();
  if (reply->rfind(prefix, 0) != 0) {
    return oodb::InternalError(
        StrCat(what, ": unexpected reply '", reply->substr(0, 80), "'"));
  }
  return Status::Ok();
}

Result<std::unique_ptr<Mirror>> PrepareMirror(
    const oodb::gen::GeneratedDl& dl, const std::string& odb, uint64_t seed,
    size_t* audited) {
  OODB_ASSIGN_OR_RETURN(std::unique_ptr<Mirror> m, Mirror::Build(dl, odb));
  OODB_RETURN_IF_ERROR(m->ComputeVerdicts());
  oodb::Rng rng(Mix(seed, 77));
  // Every positive plus 256 random pairs go through the oracle path.
  OODB_ASSIGN_OR_RETURN(size_t n, m->AuditWithOracle(rng, 256));
  *audited += n;
  return m;
}

// Loads the mirror's schema (and state) into `session` and pipelines one
// BCHECK per query against every target, judging each verdict into
// `judge`. This is how a session's memo is warmed to the full (query,
// target) matrix.
Status LoadAndScan(server::Client& client, const std::string& session,
                   const Mirror& m, bool scan, Workload& judge) {
  OODB_RETURN_IF_ERROR(Expect(client.Load(session, m.source), "session=",
                              StrCat("LOAD ", session)));
  if (!m.odb.empty()) {
    OODB_RETURN_IF_ERROR(client.LoadState(session, m.odb).status());
  }
  if (!scan) return Status::Ok();
  // A window of 16 frames stays under the daemon's admission bound.
  constexpr size_t kWindow = 16;
  std::vector<uint64_t> ids;
  for (size_t sent = 0, done = 0; done < m.queries.size();) {
    if (sent < m.queries.size() && sent - done < kWindow) {
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const std::string& t : m.targets) {
        pairs.emplace_back(m.queries[sent], t);
      }
      OODB_ASSIGN_OR_RETURN(uint64_t id,
                            client.SubmitCheckBatch(session, pairs));
      ids.push_back(id);
      ++sent;
      continue;
    }
    const size_t q = done++;
    OODB_ASSIGN_OR_RETURN(std::string body, client.Await(ids[q]));
    OODB_ASSIGN_OR_RETURN(std::vector<bool> verdicts,
                          server::ParseBatchVerdicts(body, m.targets.size()));
    for (size_t t = 0; t < verdicts.size(); ++t) {
      judge.Judge(verdicts[t] == m.Verdict(q, t), [&] {
        return StrCat("set-up BCHECK ", m.queries[q], " <= ", m.targets[t]);
      });
    }
  }
  return Status::Ok();
}

// A CHECK of a seeded random (query, target) pair of `m`.
void RandomCheck(const Mirror& m, const std::string& session, oodb::Rng& rng,
                 uint64_t id, std::string* frame, Request* req) {
  const size_t q = rng.Index(m.queries.size());
  const size_t t = rng.Index(m.targets.size());
  *frame = server::EncodeBinaryCheckRequest(id, session, m.queries[q],
                                            m.targets[t]);
  *req = Request{Request::Kind::kRead, 1, static_cast<uint32_t>(q),
                 static_cast<uint32_t>(t)};
}

bool CheckReplyIsRight(const Mirror& m, const Request& req,
                       const std::string& payload) {
  return payload ==
         (m.Verdict(req.a, req.b) ? "subsumed=true" : "subsumed=false");
}

// The UNDEFINE q / VIEW q cycle that both view-changing workloads drive:
// one query at a time leaves the catalog and comes back, in `order`, and
// every reply is held to the reference extents.
struct ViewCycle {
  std::string session;
  const Mirror* mirror = nullptr;
  std::vector<size_t> extents;  // reference view extent per query
  std::vector<size_t> order;    // query indices in cycle order
  bool taxonomy = false;        // UNDEFINE also leaves a resident taxonomy
  size_t pos = 0;
  bool undefined = false;       // order[pos] is out of the catalog

  void Reset() {
    pos = 0;
    undefined = false;
  }

  void Next(uint64_t id, std::string* frame, Request* req) const {
    const size_t q = order[pos];
    *frame = server::EncodeBinaryLineRequest(
        id, StrCat(undefined ? "VIEW " : "UNDEFINE ", session, " ",
                   mirror->queries[q]));
    *req = Request{Request::Kind::kMutation, 0, undefined ? 1u : 0u,
                   static_cast<uint32_t>(q)};
  }

  // Advances the cycle past the step `req` answered; returns whether the
  // reply was right.
  bool Accept(const Request& req, const std::string& payload) {
    const bool view = req.a == 1;
    undefined = !view;
    if (view) {
      pos = (pos + 1) % order.size();
      return payload == StrCat("extent=", extents[req.b]);
    }
    return payload.rfind(StrCat("undefined=", mirror->queries[req.b],
                                " view_dropped=true taxonomy_removed=",
                                taxonomy ? "true" : "false"),
                         0) == 0;
  }
};

// ---- bcheck_cold ----------------------------------------------------------

// Engine-bound catalog scans: every round LOADs a schema into the same
// session name (a fresh session, so a cold memo) and sends one BCHECK per
// query against every class and query, pipelined. Rounds cycle through
// kSchemas generated schemas so the reference verdicts can be computed
// up front.
class BcheckCold : public Workload {
 public:
  // Schemas differ in difficulty, so a seed's set must be large enough
  // that its mean difficulty varies little between seeds. With 24, the
  // same seed repeated varied by about 2 % in checks per CPU-second and
  // different seeds by about 15 %. 96 is about as many rounds as a
  // 10-second timed phase covers.
  static constexpr size_t kSchemas = 96;

  BcheckCold() : Workload("cold") {}

  Status Prepare(uint64_t seed) override {
    for (size_t r = 0; r < kSchemas; ++r) {
      oodb::gen::GeneratedDl dl = GenerateSchema(Mix(seed, r));
      if (r == 0) probe_dl_ = dl;
      OODB_ASSIGN_OR_RETURN(std::unique_ptr<Mirror> m,
                            PrepareMirror(dl, "", Mix(seed, 100 + r),
                                          &audited));
      load_frames_.push_back(server::EncodeBinaryLineRequest(
          0, StrCat("LOAD ", session_, " ", m->source.size()), m->source));
      m->checker.reset();  // only the verdicts are needed from here on
      mirrors_.push_back(std::move(m));
    }
    return Status::Ok();
  }

  Status SetUp(server::Client& client) override {
    // Set-up scans schema 0 once, so the timed phase starts with the LOAD
    // of schema 1 on a daemon whose engine pool and allocator are warm.
    return LoadAndScan(client, session_, *mirrors_[0], /*scan=*/true,
                       *this);
  }

  void StartTraffic(uint64_t, bool scrape) override {
    scrape_ = scrape;
    schema_ = 0;
    next_query_ = mirrors_[0]->queries.size();  // round 0 was the set-up's
    phase_ = Phase::kChecks;
    round_scrapes_.clear();
  }

  std::vector<size_t> Windows() const override { return {4}; }

  bool Next(size_t, size_t inflight, uint64_t id, std::string* frame,
            Request* req) override {
    const Mirror& m = *mirrors_[schema_];
    switch (phase_) {
      case Phase::kChecks:
        if (next_query_ < m.queries.size()) {
          // Encoded per send rather than kept: kSchemas catalogs of frames
          // would take about 80 MB.
          pairs_.clear();
          for (const std::string& t : m.targets) {
            pairs_.emplace_back(m.queries[next_query_], t);
          }
          *frame = server::EncodeBinaryBatchCheckRequest(id, session_, pairs_);
          *req = Request{Request::Kind::kRead,
                         static_cast<uint32_t>(m.targets.size()),
                         static_cast<uint32_t>(schema_),
                         static_cast<uint32_t>(next_query_)};
          ++next_query_;
          return true;
        }
        if (inflight > 0) return false;
        if (scrape_) {
          *frame = server::EncodeBinaryLineRequest(id, "METRICS");
          *req = Request{Request::Kind::kScrape, 0, 0, 0};
          phase_ = Phase::kAwait;
          return true;
        }
        [[fallthrough]];
      case Phase::kLoad:
        if (inflight > 0) return false;
        schema_ = (schema_ + 1) % kSchemas;
        *frame = load_frames_[schema_];
        StampId(frame, id);
        *req = Request{Request::Kind::kMutation, 0,
                       static_cast<uint32_t>(schema_), 0};
        phase_ = Phase::kAwait;
        return true;
      case Phase::kAwait:
        return false;
    }
    return false;
  }

  void OnReply(size_t, const Request& req,
               const std::string& payload) override {
    if (req.kind == Request::Kind::kScrape) {
      round_scrapes_.push_back(payload);
      phase_ = Phase::kLoad;
      return;
    }
    const Mirror& m = *mirrors_[req.a];
    if (req.kind == Request::Kind::kMutation) {
      Judge(payload.find(StrCat(" queries=", m.queries.size(), " ")) !=
                std::string::npos,
            [&] { return StrCat("LOAD reply '", payload.substr(0, 80), "'"); });
      next_query_ = 0;
      phase_ = Phase::kChecks;
      return;
    }
    Result<std::vector<bool>> verdicts =
        server::ParseBatchVerdicts(payload, m.targets.size());
    if (!verdicts.ok()) {
      Judge(false, [&] { return verdicts.status().ToString(); });
      return;
    }
    for (size_t t = 0; t < verdicts->size(); ++t) {
      Judge((*verdicts)[t] == m.Verdict(req.b, t), [&] {
        return StrCat("BCHECK ", m.queries[req.b], " <= ", m.targets[t]);
      });
    }
  }

 private:
  enum class Phase { kChecks, kLoad, kAwait };

  std::vector<std::unique_ptr<Mirror>> mirrors_;
  std::vector<std::string> load_frames_;
  std::vector<std::pair<std::string, std::string>> pairs_;  // scratch
  bool scrape_ = false;
  size_t schema_ = 0;
  size_t next_query_ = 0;
  Phase phase_ = Phase::kChecks;
};

// ---- check_warm -----------------------------------------------------------

// Wire- and loop-bound single checks: CHECK frames over two pipelined
// connections against a session whose whole (query, target) matrix was
// decided during set-up, so every check is a memo hit. The traffic has no
// writes. Its mutation metrics come from a write probe that runs apart
// from it: synchronous UNDEFINE / VIEW on a small side session.
class CheckWarm : public Workload {
 public:
  CheckWarm() : Workload("warm"), probe_(this) {}

  Status Prepare(uint64_t seed) override {
    probe_dl_ = GenerateSchema(Mix(seed, 0));
    OODB_ASSIGN_OR_RETURN(
        main_, PrepareMirror(probe_dl_, "", Mix(seed, 100), &audited));
    // The side session's size is a pick, not a measurement: small enough
    // that a VIEW materializes in about a hundred microseconds.
    oodb::Rng rng(Mix(seed, 1));
    oodb::gen::DlGenOptions side;
    side.num_classes = 10;
    side.num_attrs = 6;
    side.num_queries = 16;
    const oodb::gen::GeneratedDl side_dl =
        oodb::gen::GenerateDlSource(rng, side);
    oodb::gen::StateGenOptions state;
    state.num_objects = 200;
    state.num_edges = 400;
    OODB_ASSIGN_OR_RETURN(
        side_, Mirror::Build(side_dl,
                             oodb::gen::GenerateDlState(side_dl, rng, state)));
    cycle_.session = "side";
    cycle_.mirror = side_.get();
    OODB_ASSIGN_OR_RETURN(cycle_.extents, side_->ViewExtents());
    for (size_t q = 0; q < side_->queries.size(); ++q) {
      cycle_.order.push_back(q);
    }
    return Status::Ok();
  }

  Status SetUp(server::Client& client) override {
    OODB_RETURN_IF_ERROR(
        LoadAndScan(client, session_, *main_, /*scan=*/true, *this));
    OODB_RETURN_IF_ERROR(LoadAndScan(client, cycle_.session, *side_,
                                     /*scan=*/false, *this));
    for (const std::string& q : side_->queries) {
      OODB_RETURN_IF_ERROR(client.DefineView(cycle_.session, q).status());
    }
    return Status::Ok();
  }

  void StartTraffic(uint64_t seed, bool) override {
    rng_ = std::make_unique<oodb::Rng>(Mix(seed, 2));
    cycle_.Reset();
  }

  std::vector<size_t> Windows() const override { return {16, 16}; }

  bool Next(size_t, size_t, uint64_t id, std::string* frame,
            Request* req) override {
    RandomCheck(*main_, session_, *rng_, id, frame, req);
    return true;
  }

  void OnReply(size_t, const Request& req,
               const std::string& payload) override {
    Judge(CheckReplyIsRight(*main_, req, payload), [&] {
      return StrCat("CHECK ", main_->queries[req.a], " <= ",
                    main_->targets[req.b]);
    });
  }

  Source* WriteProbe() override { return &probe_; }

 private:
  // The side session's UNDEFINE / VIEW cycle, one write at a time.
  class Probe : public Source {
   public:
    explicit Probe(CheckWarm* w) : w_(w) {}
    bool Next(size_t, size_t, uint64_t id, std::string* frame,
              Request* req) override {
      w_->cycle_.Next(id, frame, req);
      return true;
    }
    void OnReply(size_t, const Request& req,
                 const std::string& payload) override {
      w_->Judge(w_->cycle_.Accept(req, payload), [&] {
        return StrCat("side-session mutation reply '", payload, "'");
      });
    }

   private:
    CheckWarm* w_;
  };

  std::unique_ptr<Mirror> main_;
  std::unique_ptr<Mirror> side_;
  ViewCycle cycle_;
  Probe probe_;
  std::unique_ptr<oodb::Rng> rng_;
};

// ---- view_churn -----------------------------------------------------------

// Writers beside readers on one session: connection 0 cycles UNDEFINE q /
// VIEW q synchronously (exclusive session lock, Classifier::Remove/Insert,
// view materialization); connection 1 pipelines CHECK, OPTIMIZE and
// CLASSIFY under the shared lock. Ends by checking the daemon's taxonomy
// against a from-scratch classification of the surviving names.
class ViewChurn : public Workload {
 public:
  ViewChurn() : Workload("churn") {}

  Status Prepare(uint64_t seed) override {
    probe_dl_ = GenerateSchema(Mix(seed, 0));
    const std::string odb = GenerateState(probe_dl_, Mix(seed, 1));
    OODB_ASSIGN_OR_RETURN(m_, PrepareMirror(probe_dl_, odb, Mix(seed, 100),
                                            &audited));
    cycle_.session = session_;
    cycle_.mirror = m_.get();
    cycle_.taxonomy = true;
    OODB_ASSIGN_OR_RETURN(cycle_.extents, m_->ViewExtents());
    for (size_t i = 0; i < m_->targets.size(); ++i) {
      target_index_[m_->targets[i]] = i;
    }
    return Status::Ok();
  }

  Status SetUp(server::Client& client) override {
    OODB_RETURN_IF_ERROR(
        LoadAndScan(client, session_, *m_, /*scan=*/false, *this));
    for (size_t q = 0; q < m_->queries.size(); ++q) {
      OODB_ASSIGN_OR_RETURN(size_t extent,
                            client.DefineView(session_, m_->queries[q]));
      if (extent != cycle_.extents[q]) {
        return oodb::InternalError(StrCat("set-up VIEW ", m_->queries[q],
                                          " extent ", extent, ", reference ",
                                          cycle_.extents[q]));
      }
    }
    return client.Classify(session_).status();
  }

  void StartTraffic(uint64_t seed, bool) override {
    rng_ = std::make_unique<oodb::Rng>(Mix(seed, 2));
    taxonomy_order_ = m_->TaxonomyNames();
    cycle_.order.resize(m_->queries.size());
    for (size_t q = 0; q < cycle_.order.size(); ++q) cycle_.order[q] = q;
    std::shuffle(cycle_.order.begin(), cycle_.order.end(), rng_->engine());
    cycle_.Reset();
    reads_ = 0;
  }

  std::vector<size_t> Windows() const override { return {1, 8}; }

  bool Next(size_t conn, size_t, uint64_t id, std::string* frame,
            Request* req) override {
    if (conn == 0) {
      cycle_.Next(id, frame, req);
      return true;
    }
    // Reads cycle 5 CHECK : 2 OPTIMIZE : 1 CLASSIFY. The mix and the
    // reader's window of 8 are assumptions, not measured caller traffic:
    // mostly single checks, with enough OPTIMIZE and CLASSIFY that every
    // shared-lock read path meets the writer.
    const size_t slot = reads_++ % 8;
    if (slot < 5) {
      RandomCheck(*m_, session_, *rng_, id, frame, req);
    } else if (slot < 7) {
      const size_t q = rng_->Index(m_->queries.size());
      *frame = server::EncodeBinaryLineRequest(
          id, StrCat("OPTIMIZE ", session_, " ", m_->queries[q]));
      *req = Request{Request::Kind::kRead, 0, static_cast<uint32_t>(q),
                     kOptimize};
    } else {
      *frame =
          server::EncodeBinaryLineRequest(id, StrCat("CLASSIFY ", session_));
      *req = Request{Request::Kind::kRead, 0, 0, kClassify};
    }
    return true;
  }

  void OnReply(size_t, const Request& req,
               const std::string& payload) override {
    if (req.kind == Request::Kind::kMutation) {
      Judge(cycle_.Accept(req, payload),
            [&] { return StrCat("mutation reply '", payload, "'"); });
      // A VIEWed class re-enters the taxonomy last.
      const std::string& q = m_->queries[req.b];
      if (req.a == 1) {
        taxonomy_order_.push_back(q);
      } else {
        taxonomy_order_.erase(
            std::find(taxonomy_order_.begin(), taxonomy_order_.end(), q));
      }
      return;
    }
    if (req.b == kClassify) {
      Judge(!payload.empty(),
            [] { return std::string("CLASSIFY reply is empty"); });
      return;
    }
    const std::string& q = m_->queries[req.a];
    if (req.b == kOptimize) {
      JudgePlan(q, req.a, payload);
      return;
    }
    Judge(CheckReplyIsRight(*m_, req, payload),
          [&] { return StrCat("CHECK ", q, " <= ", m_->targets[req.b]); });
  }

  Status Finish(server::Client& client) override {
    OODB_ASSIGN_OR_RETURN(std::string daemon, client.Classify(session_));
    OODB_ASSIGN_OR_RETURN(std::string scratch,
                          m_->ClassifyFromScratch(taxonomy_order_));
    if (daemon != scratch) {
      return oodb::InternalError(
          "final CLASSIFY differs from a from-scratch classification of the "
          "surviving names");
    }
    return Status::Ok();
  }

 private:
  static constexpr uint32_t kOptimize = ~0u;
  static constexpr uint32_t kClassify = ~0u - 1;

  // Every view an OPTIMIZE plan uses must Σ-subsume the query.
  void JudgePlan(const std::string& q, size_t qi, const std::string& plan) {
    if (plan.rfind("uses_view=", 0) != 0) {
      Judge(false, [&] {
        return StrCat("OPTIMIZE ", q, " reply '", plan.substr(0, 80), "'");
      });
      return;
    }
    const size_t at = plan.find("\nviews_used=");
    const size_t end = plan.find('\n', at + 1);
    if (at == std::string::npos || end == std::string::npos) {
      Judge(false,
            [&] { return StrCat("OPTIMIZE ", q, " reply lacks views_used"); });
      return;
    }
    const std::string used = plan.substr(at + 12, end - at - 12);
    if (used == "-") {
      ++verified;
      return;
    }
    size_t start = 0;
    while (start <= used.size()) {
      size_t comma = used.find(',', start);
      if (comma == std::string::npos) comma = used.size();
      const std::string view = used.substr(start, comma - start);
      auto it = target_index_.find(view);
      Judge(it != target_index_.end() && m_->Verdict(qi, it->second), [&] {
        return StrCat("OPTIMIZE ", q, " uses view ", view,
                      " that does not subsume it");
      });
      start = comma + 1;
    }
  }

  std::unique_ptr<Mirror> m_;
  std::unordered_map<std::string, size_t> target_index_;
  std::unique_ptr<oodb::Rng> rng_;
  ViewCycle cycle_;  // a seeded permutation of every query
  std::vector<std::string> taxonomy_order_;  // the daemon's, as it changes
  uint64_t reads_ = 0;
};

}  // namespace

Status Workload::Finish(server::Client&) { return Status::Ok(); }

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "bcheck_cold") return std::make_unique<BcheckCold>();
  if (name == "check_warm") return std::make_unique<CheckWarm>();
  if (name == "view_churn") return std::make_unique<ViewChurn>();
  return nullptr;
}

std::string GenerateState(const oodb::gen::GeneratedDl& dl, uint64_t seed) {
  oodb::Rng rng(seed);
  oodb::gen::StateGenOptions options;
  options.num_objects = 2000;
  options.num_edges = 4000;
  return oodb::gen::GenerateDlState(dl, rng, options);
}

}  // namespace perfbench
