#include "serve/session.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/univariate_bmf.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::serve {

using core::BmfConfig;
using core::CrossValidationConfig;
using core::EarlyStageKnowledge;
using core::GaussianMoments;
using core::HyperSelection;
using linalg::Matrix;
using linalg::Vector;

namespace {

/// Where a malformed JSON member arrived: the DataError message and the
/// operation it is tagged with.
struct Origin {
  const char* message;
  const char* operation;
};
constexpr Origin kSpec{"malformed estimator spec", "serve_open"};
constexpr Origin kSamples{"malformed observe samples", "serve_observe"};

[[noreturn]] void malformed(const Origin& origin, const std::string& detail) {
  throw DataError(origin.message,
                  ErrorContext{}.with_operation(origin.operation).with_detail(
                      detail));
}

[[noreturn]] void spec_error(const std::string& detail) {
  malformed(kSpec, detail);
}

Vector parse_vector(const JsonValue& value, const std::string& what,
                    const Origin& origin = kSpec) {
  if (!value.is_array()) {
    malformed(origin, what + " must be an array of numbers");
  }
  std::vector<double> data;
  data.reserve(value.as_array().size());
  for (const JsonValue& cell : value.as_array()) {
    if (!cell.is_number()) {
      malformed(origin, what + " must be an array of numbers");
    }
    data.push_back(cell.as_number());
  }
  return Vector(std::move(data));
}

Matrix matrix_from_json(const JsonValue& value, const std::string& what,
                        const Origin& origin) {
  if (!value.is_array() || value.as_array().empty()) {
    malformed(origin, what + " must be a non-empty array of rows");
  }
  const auto& rows = value.as_array();
  const Vector first = parse_vector(rows[0], what + " row", origin);
  Matrix out(rows.size(), first.size());
  out.set_row(0, first);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const Vector row = parse_vector(rows[r], what + " row", origin);
    if (row.size() != first.size()) {
      malformed(origin, what + " rows are ragged");
    }
    out.set_row(r, row);
  }
  return out;
}

}  // namespace

Matrix parse_matrix(const JsonValue& value, const std::string& what) {
  return matrix_from_json(value, what, kSpec);
}

Matrix parse_samples(const JsonValue& value) {
  return matrix_from_json(value, "samples", kSamples);
}

namespace {

GaussianMoments parse_moments(const JsonValue& value,
                              const std::string& what) {
  const JsonValue* mean = value.find("mean");
  const JsonValue* covariance = value.find("covariance");
  if (mean == nullptr || covariance == nullptr) {
    spec_error(what + " needs \"mean\" and \"covariance\"");
  }
  GaussianMoments moments;
  moments.mean = parse_vector(*mean, what + ".mean");
  moments.covariance = parse_matrix(*covariance, what + ".covariance");
  return moments;
}

std::size_t parse_count(const JsonValue& value, const std::string& what) {
  if (!value.is_number() || value.as_number() < 0.0) {
    spec_error(what + " must be a nonnegative number");
  }
  return static_cast<std::size_t>(value.as_number());
}

CrossValidationConfig parse_cv_config(const JsonValue& spec) {
  CrossValidationConfig cv;
  const JsonValue* config = spec.find("config");
  if (config == nullptr) return cv;
  if (const JsonValue* v = config->find("folds")) {
    cv.folds = parse_count(*v, "config.folds");
  }
  if (const JsonValue* v = config->find("kappa_points")) {
    cv.kappa_points = parse_count(*v, "config.kappa_points");
  }
  if (const JsonValue* v = config->find("nu_points")) {
    cv.nu_points = parse_count(*v, "config.nu_points");
  }
  cv.kappa_min = config->number_or("kappa_min", cv.kappa_min);
  cv.kappa_max = config->number_or("kappa_max", cv.kappa_max);
  cv.nu_offset_min = config->number_or("nu_offset_min", cv.nu_offset_min);
  cv.nu_offset_max = config->number_or("nu_offset_max", cv.nu_offset_max);
  if (const JsonValue* v = config->find("threads")) {
    cv.threads = parse_count(*v, "config.threads");
  }
  return cv;
}

HyperSelection parse_selection(const JsonValue& spec) {
  const JsonValue* config = spec.find("config");
  if (config == nullptr) return HyperSelection::kCrossValidation;
  const std::string selection = config->string_or("selection", "cv");
  if (selection == "cv") return HyperSelection::kCrossValidation;
  if (selection == "evidence") return HyperSelection::kEvidence;
  spec_error("config.selection must be \"cv\" or \"evidence\"");
}

bool parse_shift_scale(const JsonValue& spec) {
  const JsonValue* config = spec.find("config");
  if (config == nullptr) return true;
  const JsonValue* v = config->find("shift_scale");
  if (v == nullptr) return true;
  if (!v->is_bool()) spec_error("config.shift_scale must be a boolean");
  return v->as_bool();
}

fusion::PopulationSpec parse_population_spec(const JsonValue& value,
                                             std::size_t index) {
  const std::string what = "populations[" + std::to_string(index) + "]";
  if (!value.is_object()) spec_error(what + " must be an object");
  fusion::PopulationSpec spec;
  std::string fallback_name = "p";
  fallback_name += std::to_string(index);
  spec.name = value.string_or("name", fallback_name);
  const JsonValue* early = value.find("early");
  if (early == nullptr) spec_error(what + " needs an \"early\" stage");
  spec.early.moments = parse_moments(*early, what + ".early");
  if (const JsonValue* nominal = early->find("nominal")) {
    spec.early.nominal = parse_vector(*nominal, what + ".early.nominal");
  } else {
    // Absent nominal defaults to the early-stage mean, so fusion specs
    // that never shift/scale stay minimal.
    spec.early.nominal = spec.early.moments.mean;
  }
  if (const JsonValue* nominal = value.find("nominal")) {
    spec.late_nominal = parse_vector(*nominal, what + ".nominal");
  }
  return spec;
}

}  // namespace

std::unique_ptr<fusion::MultiPopulationEstimator> make_fusion_estimator(
    const JsonValue& spec) {
  if (!spec.is_object()) spec_error("spec must be a JSON object");
  const JsonValue* populations = spec.find("populations");
  if (populations == nullptr || !populations->is_array() ||
      populations->as_array().empty()) {
    spec_error("fusion needs a non-empty \"populations\" array");
  }
  std::vector<fusion::PopulationSpec> specs;
  specs.reserve(populations->as_array().size());
  for (std::size_t p = 0; p < populations->as_array().size(); ++p) {
    specs.push_back(parse_population_spec(populations->as_array()[p], p));
  }
  fusion::FusionConfig config;
  config.bmf.cv = parse_cv_config(spec);
  config.bmf.selection = parse_selection(spec);
  config.bmf.apply_shift_scale = parse_shift_scale(spec);
  if (const JsonValue* knobs = spec.find("config")) {
    config.shrinkage = knobs->number_or("shrinkage", config.shrinkage);
    config.min_eigenvalue =
        knobs->number_or("min_eigenvalue", config.min_eigenvalue);
    config.signal_floor =
        knobs->number_or("signal_floor", config.signal_floor);
  }
  auto estimator = std::make_unique<fusion::MultiPopulationEstimator>(
      std::move(specs), config);
  if (const JsonValue* correlation = spec.find("correlation")) {
    estimator->set_correlation(parse_matrix(*correlation, "correlation"));
  }
  return estimator;
}

std::unique_ptr<core::MomentEstimator> make_estimator(const JsonValue& spec) {
  if (!spec.is_object()) spec_error("spec must be a JSON object");
  const std::string kind = spec.string_or("estimator", "");
  std::unique_ptr<core::MomentEstimator> estimator;
  if (kind == "mle") {
    estimator = std::make_unique<core::MleEstimator>();
  } else if (kind == "bmf") {
    const JsonValue* early = spec.find("early");
    if (early == nullptr) spec_error("bmf needs an \"early\" stage");
    EarlyStageKnowledge knowledge;
    knowledge.moments = parse_moments(*early, "early");
    if (const JsonValue* nominal = early->find("nominal")) {
      knowledge.nominal = parse_vector(*nominal, "early.nominal");
    }
    BmfConfig config;
    config.cv = parse_cv_config(spec);
    config.selection = parse_selection(spec);
    config.apply_shift_scale = parse_shift_scale(spec);
    estimator = std::make_unique<core::BmfEstimator>(std::move(knowledge),
                                                     config);
  } else if (kind == "univariate-bmf") {
    const JsonValue* early = spec.find("early");
    if (early == nullptr) spec_error("univariate-bmf needs an \"early\" stage");
    estimator = std::make_unique<core::UnivariateBmfEstimator>(
        parse_moments(*early, "early"), parse_cv_config(spec));
  } else {
    spec_error("unknown estimator \"" + kind +
               "\" (expected mle, bmf or univariate-bmf)");
  }
  if (const JsonValue* nominal = spec.find("nominal")) {
    estimator->set_nominal(parse_vector(*nominal, "nominal"));
  }
  return estimator;
}

Session::Session(std::string id,
                 std::unique_ptr<core::MomentEstimator> estimator)
    : id_(std::move(id)), estimator_(std::move(estimator)) {
  BMFUSION_REQUIRE(estimator_ != nullptr, "session needs an estimator");
}

Session::Session(std::string id,
                 std::unique_ptr<fusion::MultiPopulationEstimator> fusion)
    : id_(std::move(id)), fusion_(std::move(fusion)) {
  BMFUSION_REQUIRE(fusion_ != nullptr, "session needs an estimator");
}

std::size_t Session::population_count() const {
  return fusion_ != nullptr ? fusion_->population_count() : 1;
}

std::size_t Session::observed_total() const {
  if (fusion_ == nullptr) return estimator_->observed_count();
  std::size_t total = 0;
  for (std::size_t p = 0; p < fusion_->population_count(); ++p) {
    total += fusion_->observed_count(p);
  }
  return total;
}

void Session::check_population(std::size_t population,
                               const char* operation) const {
  const std::size_t count =
      fusion_ != nullptr ? fusion_->population_count() : 1;
  if (population >= count) {
    throw DataError("population id is out of range",
                    ErrorContext{}
                        .with_operation(operation)
                        .with_index(population)
                        .with_detail(std::to_string(count) +
                                     " population(s) in session " + id_));
  }
}

std::string Session::estimator_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fusion_ != nullptr ? "fusion" : std::string(estimator_->name());
}

std::size_t Session::observe(const Matrix& samples, std::size_t population) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_population(population, "serve_observe");
  if (fusion_ != nullptr) {
    fusion_->observe(population, samples);
  } else {
    estimator_->observe(samples);
  }
  return observed_total();
}

bool Session::absorb(const stats::StatsShard& shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_population(static_cast<std::size_t>(shard.population_id),
                   "serve_absorb");
  const std::pair<std::uint64_t, std::uint64_t> key{shard.population_id,
                                                    shard.shard_id};
  if (!absorbed_shards_.insert(key).second) return false;
  try {
    if (fusion_ != nullptr) {
      fusion_->absorb(shard);
    } else {
      estimator_->absorb(shard);
    }
  } catch (...) {
    absorbed_shards_.erase(key);
    throw;
  }
  return true;
}

stats::StatsShard Session::export_shard(std::uint64_t shard_id,
                                        std::size_t population) const {
  std::lock_guard<std::mutex> lock(mutex_);
  check_population(population, "serve_stats");
  return fusion_ != nullptr ? fusion_->export_shard(population, shard_id)
                            : estimator_->export_shard(shard_id);
}

core::EstimateResult Session::estimate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fusion_ != nullptr) {
    throw DataError("fusion sessions answer joint estimates",
                    ErrorContext{}.with_operation("serve_estimate")
                        .with_detail("id: " + id_));
  }
  // The heavy lifting (the CV grid sweep) runs on the shared parallel_for
  // pool; this connection thread only holds the session lock.
  BMF_SCOPED_TIMER_US("serve.estimate_us");
  return estimator_->snapshot();
}

fusion::FusionSnapshot Session::estimate_fusion() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fusion_ == nullptr) {
    throw DataError("session is not a fusion session",
                    ErrorContext{}.with_operation("serve_estimate")
                        .with_detail("id: " + id_));
  }
  BMF_SCOPED_TIMER_US("serve.estimate_us");
  return fusion_->snapshot();
}

std::size_t Session::observed_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observed_total();
}

std::shared_ptr<Session> SessionRegistry::open(const std::string& id,
                                               const JsonValue& spec) {
  if (id.empty()) {
    throw DataError("session id must be non-empty",
                    ErrorContext{}.with_operation("serve_open"));
  }
  const bool is_fusion =
      spec.is_object() && spec.string_or("estimator", "") == "fusion";
  auto session = is_fusion
                     ? std::make_shared<Session>(id, make_fusion_estimator(spec))
                     : std::make_shared<Session>(id, make_estimator(spec));
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sessions_.emplace(id, session).second) {
    throw DataError("session already open",
                    ErrorContext{}.with_operation("serve_open").with_detail(
                        "id: " + id));
  }
  update_gauges();
  return session;
}

std::shared_ptr<Session> SessionRegistry::get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw DataError("unknown session",
                    ErrorContext{}.with_operation("serve_lookup").with_detail(
                        "id: " + id));
  }
  return it->second;
}

void SessionRegistry::close(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw DataError("unknown session",
                    ErrorContext{}.with_operation("serve_close").with_detail(
                        "id: " + id));
  }
  sessions_.erase(it);
  update_gauges();
}

std::size_t SessionRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

void SessionRegistry::update_gauges() const {
#if BMFUSION_TELEMETRY_ENABLED
  std::size_t populations = 0;
  std::size_t fusion_sessions = 0;
  for (const auto& [id, session] : sessions_) {
    populations += session->population_count();
    fusion_sessions += session->is_fusion() ? 1 : 0;
  }
  BMF_GAUGE_SET("serve.sessions", sessions_.size());
  BMF_GAUGE_SET("serve.open_populations", populations);
  BMF_GAUGE_SET("serve.fusion_sessions", fusion_sessions);
#endif
}

std::vector<SessionSummary> SessionRegistry::summaries() const {
  std::vector<std::shared_ptr<Session>> open_sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_sessions.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
      open_sessions.push_back(session);
    }
  }
  // Per-session calls take the session mutex, so they run outside the
  // registry lock (matching the lock order of the request handlers).
  std::vector<SessionSummary> out;
  out.reserve(open_sessions.size());
  for (const auto& session : open_sessions) {
    SessionSummary summary;
    summary.id = session->id();
    summary.estimator = session->estimator_name();
    summary.populations = session->population_count();
    summary.observed = session->observed_count();
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace bmfusion::serve
