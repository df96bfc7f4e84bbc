#include "capow/linalg/random.hpp"

#include "capow/splitmix64.hpp"

namespace capow::linalg {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256::next_double() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

std::uint64_t Xoshiro256::uniform_u64(std::uint64_t bound) noexcept {
  return next() % bound;
}

void fill_random(MatrixView m, std::uint64_t seed, double lo, double hi) {
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* p = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) p[j] = rng.uniform(lo, hi);
  }
}

Matrix random_square(std::size_t n, std::uint64_t seed, double lo,
                     double hi) {
  return random_matrix(n, n, seed, lo, hi);
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                     double lo, double hi) {
  Matrix m(rows, cols);
  fill_random(m.view(), seed, lo, hi);
  return m;
}

}  // namespace capow::linalg
