// ABL4 — the three power-management axes head to head. The paper's
// Section II frames DVFS and power capping as the established levers and
// proposes algorithm choice as a third; this bench quantifies all three
// under the same facility power budget: what is the fastest way to
// finish a 4096^2 multiply without ever exceeding N package watts?
//
//   axis 1 (DVFS):        downclock OpenBLAS until it fits the cap
//   axis 2 (RAPL cap):    let the PL1 limit throttle OpenBLAS
//   axis 3 (algorithm):   switch to Strassen/CAPS, full frequency
#include "power_fig_common.hpp"

#include "capow/blas/cost_model.hpp"
#include "capow/machine/dvfs.hpp"
#include "capow/rapl/msr.hpp"

namespace {

using namespace capow;
using core::AlgorithmId;

void print_reproduction() {
  bench::banner("ABL 4",
                "DVFS vs RAPL capping vs algorithm choice under a power cap");
  const auto m = machine::haswell_e3_1225();
  constexpr std::size_t kN = 4096;

  for (double cap : {45.0, 35.0, 28.0}) {
    std::printf("\nbudget: %.0f W package, n = %zu, 4 threads\n", cap, kN);
    harness::TextTable table(
        {"strategy", "time (s)", "pkg W", "energy (J)", "slowdown"});

    const auto blas_profile = blas::blocked_gemm_profile(kN, m, 4);
    const auto free_run = sim::simulate(m, blas_profile, 4);
    const double base_time = free_run.seconds;

    const auto add_row = [&](const std::string& name,
                             const sim::RunResult& run, bool fits) {
      table.add_row({name, harness::fmt(run.seconds, 3),
                     harness::fmt(
                         run.avg_power_w(machine::PowerPlane::kPackage), 2) +
                         (fits ? "" : " (!)"),
                     harness::fmt(run.energy(machine::PowerPlane::kPackage),
                                  1),
                     harness::fmt(run.seconds / base_time, 2) + "x"});
    };
    add_row("OpenBLAS unconstrained (reference)", free_run,
            free_run.avg_power_w(machine::PowerPlane::kPackage) <= cap);

    // Axis 1: DVFS — largest P-state that keeps the tuned GEMM under
    // cap, reserving the measured non-core overhead (memory + LLC
    // power) from the uncapped run.
    const double overhead =
        free_run.avg_power_w(machine::PowerPlane::kPackage) -
        free_run.avg_power_w(machine::PowerPlane::kPP0) -
        m.power.uncore_static_w;
    const double s = machine::max_frequency_scale_under_cap(
        m, blas::kTunedGemmEfficiency, cap, std::max(overhead, 0.0));
    if (s > 0.0) {
      const auto scaled = machine::scale_frequency(m, s);
      const auto run = sim::simulate(
          scaled, blas::blocked_gemm_profile(kN, scaled, 4), 4);
      add_row("axis 1: DVFS OpenBLAS @" + harness::fmt(s * 3.2, 2) + " GHz",
              run, true);
    } else {
      table.add_row({"axis 1: DVFS OpenBLAS", "-", "-", "-",
                     "cap below static floor"});
    }

    // Axis 2: RAPL PL1 throttling, programmed through the MSR like a
    // real power-capping agent.
    rapl::SimulatedMsrDevice msr;
    msr.set_package_power_limit(cap);
    const auto throttled = sim::simulate_capped(
        m, blas_profile, 4, msr.package_power_limit_w(), &msr);
    add_row("axis 2: RAPL PL1 cap on OpenBLAS", throttled, true);

    // Axis 3: algorithm choice at full frequency.
    for (AlgorithmId a : {AlgorithmId::kStrassen, AlgorithmId::kCaps}) {
      const auto run =
          sim::simulate(m, matmul_profile(kN, m, 4, {.algorithm = a}), 4);
      const bool fits =
          run.avg_power_w(machine::PowerPlane::kPackage) <= cap;
      add_row(std::string("axis 3: ") + core::algorithm_name(a) +
                  ", full speed",
              run, fits);
    }
    std::printf("%s", table.str().c_str());
  }

  std::printf(
      "\nreading: at mild caps the throttled/downclocked tuned GEMM still\n"
      "wins — its per-flop efficiency is unbeatable. As the cap tightens\n"
      "toward the Strassen family's natural operating point, axis 3\n"
      "becomes competitive and eventually dominant, with *lower total\n"
      "energy* than a GEMM stretched by throttling: the paper's thesis —\n"
      "algorithmic complexity is a power-scaling lever in its own right.\n");
}

void BM_SimulateCapped(benchmark::State& state) {
  const auto m = machine::haswell_e3_1225();
  const auto wp = blas::blocked_gemm_profile(4096, m, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_capped(m, wp, 4, 35.0).seconds);
  }
}
BENCHMARK(BM_SimulateCapped);

void BM_DvfsSearch(benchmark::State& state) {
  const auto m = machine::haswell_e3_1225();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine::max_frequency_scale_under_cap(m, 0.42, 35.0));
  }
}
BENCHMARK(BM_DvfsSearch);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
