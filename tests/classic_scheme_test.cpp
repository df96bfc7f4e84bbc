// Cross-executor bit-identity of the classic Strassen scheme.
//
// Strassen classic, CAPS at every BFS/DFS split (serial and on a pool)
// and dist-CAPS evaluate the same seven products and the same quadrant
// combines in the same left-to-right order, so their results agree
// element for element — not merely within a tolerance. Each comparison
// runs inside one build, so it holds on every kernel/compiler leg.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "capow/capsalg/caps.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/linalg/random.hpp"
#include "capow/strassen/strassen.hpp"
#include "capow/tasking/thread_pool.hpp"

namespace capow {
namespace {

using linalg::Matrix;
using linalg::random_matrix;

// 128 and 200 halve evenly to cutoff 64; 333 runs as 328 plus a 5-wide
// border.
constexpr std::size_t kSizes[] = {128, 200, 333};

/// Number of elements where x and y differ under operator==.
std::size_t mismatches(const Matrix& x, const Matrix& y) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.view().rows(); ++i) {
    for (std::size_t j = 0; j < x.view().cols(); ++j) {
      if (!(x.view()(i, j) == y.view()(i, j))) ++bad;
    }
  }
  return bad;
}

Matrix strassen_classic(const Matrix& a, const Matrix& b) {
  Matrix c(a.view().rows(), a.view().rows());
  strassen::multiply(a.view(), b.view(), c.view());
  return c;
}

TEST(ClassicScheme, CapsMatchesStrassenAtEveryBfsDepth) {
  tasking::ThreadPool pool(4);
  for (const std::size_t n : kSizes) {
    const Matrix a = random_matrix(n, n, n + 1);
    const Matrix b = random_matrix(n, n, n + 2);
    const Matrix expect = strassen_classic(a, b);
    const std::size_t levels = strassen::recursion_levels(n, 64);
    for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, levels + 1}) {
      for (tasking::ThreadPool* p : {static_cast<tasking::ThreadPool*>(nullptr),
                                     &pool}) {
        capsalg::CapsOptions opts;
        opts.bfs_cutoff_depth = depth;
        Matrix got(n, n, -7.0);
        capsalg::multiply(a.view(), b.view(), got.view(), opts, p);
        EXPECT_EQ(mismatches(got, expect), 0u)
            << "n=" << n << " bfs_cutoff_depth=" << depth
            << (p != nullptr ? " pool=4" : " serial");
      }
    }
  }
}

/// A quiet NaN carrying `payload` in its low mantissa bits.
double quiet_nan(std::uint64_t payload) {
  const std::uint64_t bits = 0x7ff8000000000000ull | payload;
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// Number of elements whose bytes differ between x and y.
std::size_t byte_mismatches(const Matrix& x, const Matrix& y) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.view().rows(); ++i) {
    for (std::size_t j = 0; j < x.view().cols(); ++j) {
      const double u = x.view()(i, j), v = y.view()(i, j);
      if (std::memcmp(&u, &v, sizeof u) != 0) ++bad;
    }
  }
  return bad;
}

/// Distinct NaN bit patterns in x.
std::size_t nan_patterns(const Matrix& x) {
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < x.view().rows(); ++i) {
    for (std::size_t j = 0; j < x.view().cols(); ++j) {
      const double v = x.view()(i, j);
      if (v != v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        seen.insert(bits);
      }
    }
  }
  return seen.size();
}

// Where two NaNs meet in an add, the result keeps one of their payloads,
// so C's NaN payloads record which operand came first in every addition
// on their path. Random finite inputs cannot tell two orders that round
// alike apart; these can. n = 520 runs as 512 plus an 8-wide border,
// n = 896 halves evenly.
TEST(ClassicScheme, NanPayloadsMatchAcrossExecutors) {
  tasking::ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{520}, std::size_t{896}}) {
    Matrix a = random_matrix(n, n, n + 21);
    Matrix b = random_matrix(n, n, n + 22);
    const std::size_t h = n / 2;
    a.view()(3, 5) = quiet_nan(0x11);
    a.view()(h + 2, 7) = quiet_nan(0x22);
    a.view()(n - 2, h + 1) = quiet_nan(0x33);
    b.view()(5, n - 3) = quiet_nan(0x44);
    b.view()(h + 3, 9) = quiet_nan(0x55);
    b.view()(n - 1, h) = quiet_nan(0x66);

    strassen::StrassenOptions sopts;
    sopts.abft.mode = abft::AbftMode::kOff;
    Matrix expect(n, n);
    strassen::multiply(a.view(), b.view(), expect.view(), sopts);
    ASSERT_GE(nan_patterns(expect), 2u) << "n=" << n;

    struct Run {
      const char* name;
      std::size_t bfs_cutoff_depth;
      tasking::ThreadPool* pool;
    };
    const std::size_t levels = strassen::recursion_levels(n, 64);
    for (const Run& run : {Run{"serial BFS", levels, nullptr},
                           Run{"BFS pool=4", levels, &pool},
                           Run{"serial DFS", 0, nullptr},
                           Run{"DFS pool=4", 0, &pool},
                           Run{"BFS then DFS pool=4", 1, &pool}}) {
      capsalg::CapsOptions opts;
      opts.bfs_cutoff_depth = run.bfs_cutoff_depth;
      opts.abft.mode = abft::AbftMode::kOff;
      Matrix got(n, n, -7.0);
      capsalg::multiply(a.view(), b.view(), got.view(), opts, run.pool);
      EXPECT_EQ(byte_mismatches(got, expect), 0u)
          << "n=" << n << " CAPS " << run.name;
    }
  }
}

TEST(ClassicScheme, DistCapsMatchesStrassen) {
  for (const std::size_t n : kSizes) {
    const Matrix a = random_matrix(n, n, n + 11);
    const Matrix b = random_matrix(n, n, n + 12);
    const Matrix expect = strassen_classic(a, b);
    for (const int ranks : {2, 7}) {
      Matrix got(n, n, -7.0);
      dist::World world(ranks);
      world.run([&](dist::Communicator& comm) {
        Matrix empty;
        const bool root = comm.rank() == 0;
        dist::dist_caps_multiply(comm, root ? a.view() : empty.view(),
                                 root ? b.view() : empty.view(),
                                 root ? got.view() : empty.view());
      });
      EXPECT_EQ(mismatches(got, expect), 0u)
          << "n=" << n << " ranks=" << ranks;
    }
  }
}

}  // namespace
}  // namespace capow
