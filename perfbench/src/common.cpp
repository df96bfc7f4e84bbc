#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  Rng r(a ^ (b * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull));
  r.next();
  return r.next();
}

void SequenceHash::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void SequenceHash::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string SequenceHash::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void fill_operand(capow::linalg::MatrixView m, std::uint64_t seed) {
  Rng r(seed);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] = 2.0 * r.unit() - 1.0;
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double central_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t lo = std::min(n - 1, n * 2 / 5);
  const std::size_t hi = std::max(lo + 1, (n * 3 + 4) / 5);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

Tail tail_of(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.beyond = std::min(beyond, v.size() - 1);
  const std::size_t idx = v.size() - 1 - t.beyond;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(v.size() - t.beyond) /
                 static_cast<double>(v.size());
  return t;
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                softirq = 0, steal = 0;
  in >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!in) return CpuTicks{};
  t.user = user + nice;
  t.system = system + irq + softirq;
  t.steal = steal;
  return t;
}

double steal_frac(const CpuTicks& before, const CpuTicks& after) {
  const double user = static_cast<double>(after.user - before.user);
  const double system = static_cast<double>(after.system - before.system);
  const double steal = static_cast<double>(after.steal - before.steal);
  const double total = user + system + steal;
  return total > 0.0 ? steal / total : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

double inf_norm(capow::linalg::ConstMatrixView m) {
  double best = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.data() + i * m.ld();
    double s = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) s += std::fabs(row[j]);
    best = std::max(best, s);
  }
  return best;
}

std::vector<double> matvec(capow::linalg::ConstMatrixView m,
                           const std::vector<double>& x) {
  std::vector<double> y(m.rows(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.data() + i * m.ld();
    double s = 0.0;
    for (std::size_t j = 0; j < m.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

}  // namespace

FreivaldsResult freivalds(capow::linalg::ConstMatrixView a,
                          capow::linalg::ConstMatrixView b,
                          capow::linalg::ConstMatrixView c,
                          std::uint64_t seed) {
  FreivaldsResult r;
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    return r;
  }
  Rng rng(seed);
  std::vector<double> x(b.cols());
  for (double& v : x) {
    const double mag = 0.5 + 0.5 * rng.unit();
    v = (rng.next() & 1u) != 0 ? mag : -mag;
  }
  const std::vector<double> abx = matvec(a, matvec(b, x));
  const std::vector<double> cx = matvec(c, x);
  for (std::size_t i = 0; i < cx.size(); ++i) {
    const double d = std::fabs(cx[i] - abx[i]);
    // NaN never compares greater, so track it explicitly.
    r.residual = std::isnan(d) ? std::numeric_limits<double>::infinity()
                               : std::max(r.residual, d);
  }
  const double n = static_cast<double>(a.cols());
  r.tolerance = 16.0 * std::numeric_limits<double>::epsilon() * n *
                inf_norm(a) * inf_norm(b);  // ‖x‖∞ < 1
  r.ok = r.residual <= r.tolerance;
  return r;
}

double largest_abs_diff(capow::linalg::ConstMatrixView x,
                    capow::linalg::ConstMatrixView y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double best = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double d = std::fabs(x.data()[i * x.ld() + j] -
                                 y.data()[i * y.ld() + j]);
      if (std::isnan(d)) return std::numeric_limits<double>::infinity();
      best = std::max(best, d);
    }
  }
  return best;
}

}  // namespace perfbench
