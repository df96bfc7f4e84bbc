#include "capow/serve/predictor.hpp"

#include <stdexcept>

#include "capow/api/matmul.hpp"
#include "capow/blas/cost_model.hpp"
#include "capow/core/crossover.hpp"
#include "capow/sim/executor.hpp"

namespace capow::serve {

CostPredictor::CostPredictor(machine::MachineSpec spec, unsigned threads)
    : spec_(std::move(spec)), threads_(threads) {
  if (threads_ == 0) {
    throw std::invalid_argument("CostPredictor: threads must be >= 1");
  }
  spec_.validate();
  crossover_n_ =
      core::strassen_crossover_dimension(spec_, blas::kTunedGemmEfficiency);
}

const Prediction& CostPredictor::predict(core::AlgorithmId algorithm,
                                         std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("CostPredictor: n must be >= 1");
  }
  const auto key = std::make_pair(static_cast<int>(algorithm), n);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  const sim::RunResult run = sim::simulate(
      spec_, matmul_profile(n, spec_, threads_, {.algorithm = algorithm}),
      threads_);
  Prediction p;
  p.seconds = run.seconds;
  p.package_j = run.energy(machine::PowerPlane::kPackage);
  return cache_.emplace(key, p).first->second;
}

AlgorithmChoice CostPredictor::choose(std::size_t n, bool eco) {
  AlgorithmChoice best;
  bool have = false;
  for (const auto& info : core::algorithm_registry()) {
    if (!eco && info.id != core::AlgorithmId::kOpenBlas &&
        static_cast<double>(n) < crossover_n_) {
      // Eq (9): below the crossover a Strassen step loses to the
      // classical multiply; CAPS shares the gate (same recursion
      // economics, the paper's Table II shows both slower here).
      continue;
    }
    const Prediction& p = predict(info.id, n);
    const double score = eco ? p.package_j : p.seconds;
    const double best_score =
        eco ? best.prediction.package_j : best.prediction.seconds;
    if (!have || score < best_score) {
      best.algorithm = info.id;
      best.prediction = p;
      have = true;
    }
  }
  return best;
}

}  // namespace capow::serve
