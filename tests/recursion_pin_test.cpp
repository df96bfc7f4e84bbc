// Output and cost pins for the fast recursions as capow::matmul() runs
// them: every Strassen and CAPS class of perfbench's fast_recursion
// workload, plus Winograd at n=520 through strassen::multiply.
//
// For each class the exact bytes of C (FNV-1a, so a -0.0 or a NaN
// payload changes the hash), the trace::Recorder totals and, for CAPS,
// the serial CapsStats are recorded from a known-good build. A change to
// how a node schedules its products and additions, or to which buffers
// it copies, must leave all of them alone: serially and on a 4-worker
// pool, with ABFT off and with ABFT correcting.
//
// The pins hold the default BOTS base kernel, whose clones all round
// alike; a CAPOW_KERNEL override selects a packed kernel that rounds
// differently, so those legs skip.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "capow/api/matmul.hpp"
#include "capow/capsalg/caps.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/thread_pool.hpp"
#include "capow/trace/counters.hpp"

namespace capow {
namespace {

using core::AlgorithmId;
using linalg::Matrix;
using linalg::random_matrix;

std::uint64_t fnv1a(linalg::ConstMatrixView v) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < v.rows(); ++i) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.row(i));
    for (std::size_t b = 0; b < v.cols() * sizeof(double); ++b) {
      h = (h ^ p[b]) * 1099511628211ull;
    }
  }
  return h;
}

/// The recorder totals one configuration pins.
struct Totals {
  std::uint64_t flops, dram_read, dram_write, tasks, syncs;
  bool operator==(const Totals&) const = default;
};

std::string str(const Totals& t) {
  std::ostringstream os;
  os << "{" << t.flops << "ull, " << t.dram_read << "ull, " << t.dram_write
     << "ull, " << t.tasks << ", " << t.syncs << "}";
  return os.str();
}

enum Config { kSerialOff, kSerialCorrect, kPoolOff, kPoolCorrect, kConfigs };

constexpr const char* kConfigNames[kConfigs] = {
    "serial abft=off", "serial abft=correct", "pool=4 abft=off",
    "pool=4 abft=correct"};

struct Pin {
  const char* name;
  AlgorithmId algorithm;
  bool winograd;
  std::size_t n;
  std::uint64_t c_hash;  ///< the same bits in every configuration
  Totals totals[kConfigs];
  capsalg::CapsStats caps;  ///< serial; zero for Strassen
};

// n = 520, 641 and 769 recurse on their leading 512, 640 and 768 blocks
// and fold the border in with three base products (strassen::run_frame);
// on the pool the recursion and two of them run as three more tasks.
// clang-format off
constexpr Pin kPins[] = {
    {"strassen", AlgorithmId::kStrassen, false, 520, 0x1d10c11d81283931ull,
     {{199468032ull, 136611328ull, 68256256ull, 0, 0},
      {199468032ull, 136611328ull, 68256256ull, 0, 0},
      {199468032ull, 136611328ull, 68256256ull, 402, 58},
      {199468032ull, 136611328ull, 68256256ull, 402, 58}},
     {}},
    {"caps", AlgorithmId::kCaps, false, 641, 0x98e3ca588c14a866ull,
     {{330381442ull, 434135064ull, 235363848ull, 0, 0},
      {330381442ull, 434135064ull, 235363848ull, 0, 0},
      {330381442ull, 434135064ull, 235363848ull, 402, 58},
      {330381442ull, 434135064ull, 235363848ull, 402, 58}},
     {22848000ull, 400, 0, 2401}},
    {"strassen", AlgorithmId::kStrassen, false, 769, 0xbd08b1e4be7de699ull,
     {{564258818ull, 572430360ull, 286205960ull, 0, 0},
      {564258818ull, 572430360ull, 286205960ull, 0, 0},
      {564258818ull, 572430360ull, 286205960ull, 402, 58},
      {564258818ull, 572430360ull, 286205960ull, 402, 58}},
     {}},
    {"caps", AlgorithmId::kCaps, false, 896, 0x18febcd4bed244eaull,
     {{883668352ull, 837989376ull, 454870528ull, 0, 0},
      {883668352ull, 837989376ull, 454870528ull, 0, 0},
      {883668352ull, 837989376ull, 454870528ull, 399, 57},
      {883668352ull, 837989376ull, 454870528ull, 399, 57}},
     {44782080ull, 400, 0, 2401}},
    {"strassen", AlgorithmId::kStrassen, false, 1024, 0xdeb30c743f55f0c5ull,
     {{1311531008ull, 1000800256ull, 500400128ull, 0, 0},
      {1311531008ull, 1000800256ull, 500400128ull, 0, 0},
      {1311531008ull, 1000800256ull, 500400128ull, 399, 57},
      {1311531008ull, 1000800256ull, 500400128ull, 399, 57}},
     {}},
    {"winograd", AlgorithmId::kStrassen, true, 520, 0xdf832ac14e9935c5ull,
     {{198325248ull, 118326784ull, 59113984ull, 0, 0},
      {198325248ull, 118326784ull, 59113984ull, 0, 0},
      {198325248ull, 118326784ull, 59113984ull, 402, 58},
      {198325248ull, 118326784ull, 59113984ull, 402, 58}},
     {}},
};
// clang-format on

// Names the class, so a failing case never prints the pin's bytes.
void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.name << " n=" << pin.n;
}

class RecursionPinTest : public ::testing::TestWithParam<Pin> {};

// Runs one pinned multiply as capow::matmul() does. Winograd and the
// CapsStats leg run through their entry points, which matmul() reaches
// at default options (MatmulFacadeEquivalence.MatchesTheEntryPointBitwise).
void run(const Pin& pin, linalg::ConstMatrixView a, linalg::ConstMatrixView b,
         linalg::MatrixView c, tasking::ThreadPool* pool,
         abft::AbftConfig guard, capsalg::CapsStats* stats) {
  if (pin.winograd) {
    strassen::multiply(a, b, c, {.winograd = true, .abft = guard}, pool);
  } else if (stats != nullptr) {
    capsalg::multiply(a, b, c, {.abft = guard}, pool, stats);
  } else {
    matmul(a, b, c, {.algorithm = pin.algorithm, .pool = pool, .abft = guard});
  }
}

TEST_P(RecursionPinTest, OutputBitsAndCountsArePinned) {
  const Pin& pin = GetParam();
  const blas::MicroKernel* base = strassen::resolve_base_kernel(std::nullopt);
  if (base != nullptr) {
    GTEST_SKIP() << "pins hold the BOTS base kernel; CAPOW_KERNEL selects "
                 << base->name;
  }
  const Matrix a = random_matrix(pin.n, pin.n, 1000 + pin.n);
  const Matrix b = random_matrix(pin.n, pin.n, 2000 + pin.n);
  tasking::ThreadPool pool(4);

  for (int cfg = 0; cfg < kConfigs; ++cfg) {
    const std::string where = std::string(pin.name) + " n=" +
                              std::to_string(pin.n) + " " + kConfigNames[cfg];
    tasking::ThreadPool* workers =
        cfg == kPoolOff || cfg == kPoolCorrect ? &pool : nullptr;
    abft::AbftConfig guard;
    guard.mode = cfg == kSerialCorrect || cfg == kPoolCorrect
                     ? abft::AbftMode::kCorrect
                     : abft::AbftMode::kOff;
    capsalg::CapsStats stats;
    const bool want_stats =
        cfg == kSerialOff && pin.algorithm == AlgorithmId::kCaps;

    Matrix c(pin.n, pin.n, -7.0);
    trace::Recorder rec;
    {
      const trace::RecordingScope scope(rec);
      run(pin, a.view(), b.view(), c.view(), workers, guard,
          want_stats ? &stats : nullptr);
    }
    const std::uint64_t hash = fnv1a(c.view());
    EXPECT_EQ(hash, pin.c_hash)
        << where << " got 0x" << std::hex << hash << std::dec;
    const trace::CostCounters t = rec.total();
    const Totals got{t.flops, t.dram_read_bytes, t.dram_write_bytes,
                     t.tasks_spawned, t.syncs};
    EXPECT_EQ(got, pin.totals[cfg]) << where << " got " << str(got);
    if (want_stats) {
      EXPECT_EQ(stats.peak_buffer_bytes, pin.caps.peak_buffer_bytes) << where;
      EXPECT_EQ(stats.bfs_nodes, pin.caps.bfs_nodes) << where;
      EXPECT_EQ(stats.dfs_nodes, pin.caps.dfs_nodes) << where;
      EXPECT_EQ(stats.base_products, pin.caps.base_products)
          << where << " got {" << stats.peak_buffer_bytes << "ull, "
          << stats.bfs_nodes << ", " << stats.dfs_nodes << ", "
          << stats.base_products << "}";
    }
  }
}

std::string pin_name(const ::testing::TestParamInfo<Pin>& info) {
  return std::string(info.param.name) + "_" + std::to_string(info.param.n);
}

INSTANTIATE_TEST_SUITE_P(FastRecursion, RecursionPinTest,
                         ::testing::ValuesIn(kPins), pin_name);

}  // namespace
}  // namespace capow
