#include "mirror.h"

#include <chrono>
#include <utility>

#include "base/strings.h"
#include "calculus/services.h"
#include "db/instance.h"
#include "dl/analyzer.h"

namespace perfbench {

using oodb::Result;
using oodb::Status;

Result<std::unique_ptr<Mirror>> Mirror::Build(const oodb::gen::GeneratedDl& dl,
                                              const std::string& odb,
                                              BuildTimes* times) {
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  std::unique_ptr<Mirror> m(new Mirror());
  m->source = dl.source;
  m->odb = odb;
  m->terms = std::make_unique<oodb::ql::TermFactory>(&m->symbols);
  m->sigma = std::make_unique<oodb::schema::Schema>(m->terms.get());
  const Clock::time_point t0 = Clock::now();
  OODB_ASSIGN_OR_RETURN(oodb::dl::Model model,
                        oodb::dl::ParseAndAnalyze(dl.source, &m->symbols));
  const Clock::time_point t1 = Clock::now();
  m->model = std::make_unique<oodb::dl::Model>(std::move(model));
  m->translator =
      std::make_unique<oodb::dl::Translator>(*m->model, m->terms.get());
  OODB_RETURN_IF_ERROR(m->translator->BuildSchema(m->sigma.get()));
  const Clock::time_point t2 = Clock::now();
  m->checker = std::make_unique<oodb::calculus::SubsumptionChecker>(*m->sigma);
  m->database =
      std::make_unique<oodb::db::Database>(*m->model, &m->symbols);
  if (!odb.empty()) {
    OODB_RETURN_IF_ERROR(
        oodb::db::LoadInstance(odb, m->database.get()).status());
  }
  m->queries = dl.query_names;
  m->targets = dl.class_names;
  m->targets.insert(m->targets.end(), dl.query_names.begin(),
                    dl.query_names.end());
  const Clock::time_point t3 = Clock::now();
  for (const std::string& q : m->queries) {
    OODB_ASSIGN_OR_RETURN(oodb::ql::ConceptId c, m->ConceptOf(q));
    m->query_concepts.push_back(c);
  }
  if (times != nullptr) {
    times->parse_us = us(t1 - t0);
    times->build_schema_us = us(t2 - t1);
    times->query_concept_us =
        m->queries.empty()
            ? 0.0
            : us(Clock::now() - t3) / static_cast<double>(m->queries.size());
  }
  for (const std::string& t : m->targets) {
    OODB_ASSIGN_OR_RETURN(oodb::ql::ConceptId d, m->ConceptOf(t));
    m->target_concepts.push_back(d);
  }
  return m;
}

Result<oodb::ql::ConceptId> Mirror::ConceptOf(const std::string& name) const {
  const oodb::Symbol s = symbols.Find(name);
  const oodb::dl::ClassDef* def = s.valid() ? model->FindClass(s) : nullptr;
  if (def == nullptr) {
    return oodb::NotFoundError(oodb::StrCat("no class named '", name, "'"));
  }
  if (!def->is_query) return terms->Primitive(s);
  return translator->QueryConcept(s);
}

Status Mirror::ComputeVerdicts() {
  verdicts_.assign(queries.size() * targets.size(), 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    OODB_ASSIGN_OR_RETURN(
        std::vector<bool> row,
        checker->SubsumesBatch(query_concepts[q], target_concepts));
    for (size_t t = 0; t < row.size(); ++t) {
      verdicts_[q * targets.size() + t] = row[t] ? 1 : 0;
    }
  }
  return Status::Ok();
}

Result<size_t> Mirror::AuditWithOracle(oodb::Rng& rng, size_t sample) const {
  oodb::calculus::CheckerOptions options;
  options.memoize = false;
  options.prefilter = false;
  const oodb::calculus::SubsumptionChecker oracle(*sigma, options);
  size_t audited = 0;
  auto audit = [&](size_t q, size_t t) -> Status {
    OODB_ASSIGN_OR_RETURN(
        oodb::calculus::SubsumptionOutcome outcome,
        oracle.SubsumesDetailed(query_concepts[q], target_concepts[t]));
    ++audited;
    if (outcome.subsumed != Verdict(q, t)) {
      return oodb::InternalError(oodb::StrCat(
          "oracle disagrees on ", queries[q], " <= ", targets[t],
          ": reference ", Verdict(q, t), ", oracle ", outcome.subsumed));
    }
    return Status::Ok();
  };
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t t = 0; t < targets.size(); ++t) {
      if (Verdict(q, t)) OODB_RETURN_IF_ERROR(audit(q, t));
    }
  }
  for (size_t i = 0; i < sample; ++i) {
    OODB_RETURN_IF_ERROR(
        audit(rng.Index(queries.size()), rng.Index(targets.size())));
  }
  return audited;
}

std::vector<std::string> Mirror::TaxonomyNames() const {
  std::vector<std::string> names;
  for (const oodb::dl::ClassDef& def : model->classes()) {
    if (def.name == model->object_class) continue;
    names.push_back(symbols.Name(def.name));
  }
  return names;
}

Result<std::string> Mirror::ClassifyFromScratch(
    const std::vector<std::string>& names) const {
  oodb::calculus::Classifier classifier(*checker);
  for (const std::string& name : names) {
    OODB_ASSIGN_OR_RETURN(oodb::ql::ConceptId c, ConceptOf(name));
    OODB_RETURN_IF_ERROR(classifier.Add(symbols.Find(name), c));
  }
  OODB_RETURN_IF_ERROR(classifier.Classify());
  return classifier.ToString(symbols);
}

Result<std::vector<size_t>> Mirror::ViewExtents() const {
  oodb::views::ViewCatalog catalog(database.get(), translator.get());
  std::vector<size_t> extents;
  for (const std::string& q : queries) {
    const oodb::Symbol s = symbols.Find(q);
    OODB_RETURN_IF_ERROR(catalog.DefineView(s));
    extents.push_back(catalog.Find(s)->extent.size());
  }
  return extents;
}

}  // namespace perfbench
