// TAB3 — "Average power by thread count" (paper Table III; its caption
// repeats Table II's by mistake, but the body is watts per algorithm per
// thread count averaged over problem sizes).
#include "power_fig_common.hpp"

#include "capow/rapl/papi.hpp"
#include "capow/sim/executor.hpp"

namespace {

using namespace capow;
using core::AlgorithmId;

constexpr double kPaper[3][4] = {
    {20.2, 30.9, 40.98, 49.13},    // OpenBLAS
    {21.1, 26.25, 30.4, 31.9},     // Strassen
    {17.7, 25.75, 30.175, 33.175}  // CAPS
};
constexpr double kPaperAvg[3] = {35.3, 27.41, 26.7};

void print_reproduction() {
  auto& runner = bench::paper_runner();
  bench::banner("TABLE III", "average package power (W) by thread count");

  harness::TextTable table({"Num Threads", "1", "2", "3", "4", "Average"});
  for (AlgorithmId a : core::kAllAlgorithms) {
    std::vector<std::string> row{core::algorithm_name(a)};
    double sum = 0.0;
    for (unsigned t = 1; t <= 4; ++t) {
      const double w = runner.average_power(a, t);
      sum += w;
      row.push_back(harness::fmt(w, 2));
    }
    row.push_back(harness::fmt(sum / 4.0, 2));
    table.add_row(row);
  }
  std::printf("\n%s\n", table.str().c_str());

  std::printf("paper-vs-ours:\n");
  for (std::size_t ai = 0; ai < 3; ++ai) {
    const AlgorithmId a = core::kAllAlgorithms[ai];
    for (unsigned t = 1; t <= 4; ++t) {
      bench::compare_line(std::string(core::algorithm_name(a)) + " @" +
                              std::to_string(t) + " threads",
                          kPaper[ai][t - 1], runner.average_power(a, t));
    }
    double avg = 0.0;
    for (unsigned t = 1; t <= 4; ++t) avg += runner.average_power(a, t);
    bench::compare_line(std::string(core::algorithm_name(a)) + " average",
                        kPaperAvg[ai], avg / 4.0);
  }

  // The headline deltas the paper derives from this table.
  double caps_avg = 0.0, str_avg = 0.0;
  for (unsigned t = 1; t <= 4; ++t) {
    caps_avg += runner.average_power(AlgorithmId::kCaps, t);
    str_avg += runner.average_power(AlgorithmId::kStrassen, t);
  }
  std::printf(
      "\nCAPS vs Strassen average power delta: paper -2.59%%, ours %+.2f%%\n",
      (caps_avg / str_avg - 1.0) * 100.0);

  // The physically robust form of the same claim: total energy to
  // solution. Our CAPS finishes sooner at similar energy, so its
  // *average power* reads higher while its *energy* is lower — see
  // EXPERIMENTS.md for the reconciliation with the paper's numbers.
  const double caps_j =
      runner.find(AlgorithmId::kCaps, 4096, 4).package_energy_j;
  const double str_j =
      runner.find(AlgorithmId::kStrassen, 4096, 4).package_energy_j;
  std::printf(
      "CAPS vs Strassen energy-to-solution delta at n=4096, 4 threads: "
      "ours %+.2f%%\n(communication avoidance pays off where it matters — "
      "full parallelism with the\nworking set out of cache; at "
      "cache-resident or serial configurations CAPS's\nextra operand "
      "copies cost it energy instead)\n",
      (caps_j / str_j - 1.0) * 100.0);
}

// Microbenchmark the measurement path itself: how fast can a PAPI-style
// client poll the simulated RAPL device?
void BM_RaplPoll(benchmark::State& state) {
  rapl::SimulatedMsrDevice msr;
  rapl::EventSet events(msr);
  events.add_event(rapl::kEventPackageEnergy);
  events.add_event(rapl::kEventPp0Energy);
  events.start();
  double joules = 0.01;
  for (auto _ : state) {
    msr.deposit(machine::PowerPlane::kPackage, joules);
    msr.deposit(machine::PowerPlane::kPP0, joules * 0.7);
    benchmark::DoNotOptimize(events.read());
  }
}
BENCHMARK(BM_RaplPoll);

void BM_SimulateFullMatrixConfig(benchmark::State& state) {
  const auto m = machine::haswell_e3_1225();
  for (auto _ : state) {
    const auto wp = matmul_profile(
        4096, m, 4, {.algorithm = core::AlgorithmId::kStrassen});
    benchmark::DoNotOptimize(sim::simulate(m, wp, 4).seconds);
  }
}
BENCHMARK(BM_SimulateFullMatrixConfig);

}  // namespace

int main(int argc, char** argv) {
  return capow::bench::bench_main(argc, argv, print_reproduction);
}
