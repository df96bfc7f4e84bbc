// Power-budget advisor — the paper's motivating use case made concrete.
//
// The introduction promises "system architects, facilities managers and
// users the ability to construct and maintain scalable applications ...
// within the limits of the respective facilities while maintaining the
// highest potential performance." This example is that tool: given a
// problem size and a package-power budget (watts), it searches the
// algorithm x thread-count space and recommends the fastest
// configuration that stays under budget.
//
// Usage: power_budget_advisor [n] [watt_budget]
//        defaults: n = 4096, budget = 35 W
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "capow/harness/experiment.hpp"
#include "capow/harness/table.hpp"

int main(int argc, char** argv) {
  using namespace capow;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;
  const double budget = argc > 2 ? std::strtod(argv[2], nullptr) : 35.0;
  if (n == 0 || budget <= 0.0) {
    std::printf("usage: %s [n > 0] [watt_budget > 0]\n", argv[0]);
    return 1;
  }

  harness::ExperimentConfig cfg;
  cfg.sizes = {n};
  cfg.thread_counts = {1, 2, 3, 4};
  harness::ExperimentRunner runner(cfg);
  runner.run();

  std::printf("power budget advisor — %s\n", cfg.machine.name.c_str());
  std::printf("problem: %zu x %zu doubles, budget: %.1f W (package)\n\n", n,
              n, budget);

  harness::TextTable table({"algorithm", "threads", "time (s)", "pkg W",
                            "EP (W/s)", "within budget"});
  std::optional<harness::ResultRecord> best;
  for (core::AlgorithmId a : core::kAllAlgorithms) {
    for (unsigned t : cfg.thread_counts) {
      const auto& r = runner.find(a, n, t);
      const bool ok = r.package_watts <= budget;
      table.add_row({core::algorithm_name(a), std::to_string(t),
                     harness::fmt(r.seconds, 3),
                     harness::fmt(r.package_watts, 2),
                     harness::fmt(r.ep, 2), ok ? "yes" : "no"});
      if (ok && (!best || r.seconds < best->seconds)) best = r;
    }
  }
  std::printf("%s\n", table.str().c_str());

  if (best) {
    std::printf(
        "recommendation: %s with %u thread(s) — %.3f s at %.2f W "
        "(%.1f%% of budget)\n",
        core::algorithm_name(best->algorithm), best->threads,
        best->seconds, best->package_watts,
        best->package_watts / budget * 100.0);
    const auto& unconstrained =
        runner.find(core::AlgorithmId::kOpenBlas, n, 4);
    if (unconstrained.package_watts > budget) {
      std::printf(
          "note: the unconstrained fastest option (OpenBLAS, 4 threads, "
          "%.3f s)\nneeds %.2f W — %.1f W over this facility's budget. "
          "This is exactly the\ntrade the paper's EP model exists to "
          "navigate.\n",
          unconstrained.seconds, unconstrained.package_watts,
          unconstrained.package_watts - budget);
    }
  } else {
    std::printf(
        "no configuration fits a %.1f W budget on this machine; the\n"
        "lowest-power option is Strassen or CAPS at 1 thread.\n",
        budget);
  }
  return 0;
}
