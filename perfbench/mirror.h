// The in-process reference a workload checks the daemon against: the same
// DL source parsed, translated and checked in the benchmark's own process
// exactly the way server::Session does it, plus the verdict matrix of
// every (query, target) pair the workload may ask about.
#ifndef PERFBENCH_MIRROR_H_
#define PERFBENCH_MIRROR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "base/symbol.h"
#include "calculus/subsumption.h"
#include "db/database.h"
#include "dl/model.h"
#include "dl/translate.h"
#include "gen/dl_gen.h"
#include "ql/term_factory.h"
#include "schema/schema.h"
#include "views/views.h"

namespace perfbench {

class Mirror {
 public:
  // Wall time of Build's dl phases (the dl layer probe reads them).
  struct BuildTimes {
    double parse_us = 0;          // dl::ParseAndAnalyze
    double build_schema_us = 0;   // Translator + BuildSchema
    double query_concept_us = 0;  // QueryConcept, mean per query
  };

  // Parses `dl` and, when `odb` is non-empty, loads it as the database
  // state. Targets are the generated schema classes then the queries.
  static oodb::Result<std::unique_ptr<Mirror>> Build(
      const oodb::gen::GeneratedDl& dl, const std::string& odb,
      BuildTimes* times = nullptr);

  // Fills the verdict matrix with SubsumesBatch, one call per query (the
  // same grouping the daemon's BCHECK uses).
  oodb::Status ComputeVerdicts();

  // Re-decides every positive verdict plus `sample` random negatives on
  // the oracle path: no pre-filter, no memo, one full completion per
  // pair (SubsumesDetailed). Returns the number of pairs re-decided, or
  // an error naming the first disagreement.
  oodb::Result<size_t> AuditWithOracle(oodb::Rng& rng, size_t sample) const;

  // Renders a from-scratch classification of `names` (added in this
  // order) exactly as the daemon's CLASSIFY does.
  oodb::Result<std::string> ClassifyFromScratch(
      const std::vector<std::string>& names) const;

  // Initial taxonomy order of the daemon's resident classifier: every
  // class of the model except the builtin Object class, in model order.
  std::vector<std::string> TaxonomyNames() const;

  // Extent size of each query's view over the loaded state (needs `odb`).
  oodb::Result<std::vector<size_t>> ViewExtents() const;

  bool Verdict(size_t query, size_t target) const {
    return verdicts_[query * targets.size() + target] != 0;
  }

  // A query class's translated concept, or a schema class's primitive.
  oodb::Result<oodb::ql::ConceptId> ConceptOf(const std::string& name) const;

  std::string source;
  std::string odb;
  std::vector<std::string> queries;
  std::vector<std::string> targets;
  std::vector<oodb::ql::ConceptId> query_concepts;
  std::vector<oodb::ql::ConceptId> target_concepts;

  oodb::SymbolTable symbols;
  std::unique_ptr<oodb::ql::TermFactory> terms;
  std::unique_ptr<oodb::schema::Schema> sigma;
  std::unique_ptr<oodb::dl::Model> model;
  std::unique_ptr<oodb::dl::Translator> translator;
  std::unique_ptr<oodb::calculus::SubsumptionChecker> checker;
  std::unique_ptr<oodb::db::Database> database;

 private:
  Mirror() = default;

  std::vector<uint8_t> verdicts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MIRROR_H_
