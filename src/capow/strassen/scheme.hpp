// The classic Strassen scheme (the paper's Eq 7, corrected), written once:
//
//   M1 = (A11 + A22)(B11 + B22)     M5 = (A11 + A12) B22
//   M2 = (A21 + A22) B11            M6 = (A21 - A11)(B11 + B12)
//   M3 = A11 (B12 - B22)            M7 = (A12 - A22)(B21 + B22)
//   M4 = A22 (B21 - B11)
//
//   C11 = M1 + M4 - M5 + M7         C12 = M3 + M5
//   C21 = M2 + M4                   C22 = M1 - M2 + M3 + M6
//
// Every classic executor walks this table: Strassen's nodes, CAPS's BFS
// and DFS levels, dist-CAPS's root, and both cachesim replays. The
// Strassen and CAPS cost models take their per-level operand, combine,
// copy and live-buffer counts from it. Sums are evaluated left to right,
// so every executor rounds the same way and the instrumented counts and
// the closed forms agree by construction.
//
// A Strassen node and a CAPS step, BFS or DFS, do not evaluate kCombine
// over seven product buffers: all run kSchedule through the one classic
// step (strassen::classic_step, frame.hpp), which stores M1..M3 straight
// into the C quadrants whose sums they start and passes M4..M7 through
// one product temporary (one each when the products run as tasks). A
// static_assert replays the schedule symbolically and proves that every
// C quadrant is still kCombine's left-to-right sum with the same operand
// order, so the result bits, -0.0 and NaN payloads included, are those
// of the textbook evaluation. The cachesim Strassen replay and the CAPS
// replay's BFS levels keep the textbook order (seven product buffers,
// then the four combines); their pinned logical bytes model that order,
// not the executor's. The CAPS replay's DFS levels run kSchedule.
// Winograd's 15-addition variant shares partial sums between products
// and keeps its own sequence in strassen.cpp.
#pragma once

#include <array>
#include <cstddef>

#include "capow/linalg/partition.hpp"

namespace capow::strassen::scheme {

/// Quadrant numbers in operand sums, row-major from 1 like the products.
inline constexpr int k11 = 1, k12 = 2, k21 = 3, k22 = 4;

/// A signed sum, evaluated left to right. Each entry numbers a term — a
/// quadrant (k11..k22) in an operand sum, a product (1..7) in a C
/// quadrant's sum — and is negative when the term is subtracted; 0 ends
/// the list. The first term is always added.
struct Sum {
  std::array<int, 4> terms{};

  constexpr std::size_t size() const noexcept {
    std::size_t s = 0;
    while (s < terms.size() && terms[s] != 0) ++s;
    return s;
  }
  /// Term k as a 0-based quadrant or product index.
  constexpr std::size_t index(std::size_t k) const noexcept {
    return static_cast<std::size_t>(terms[k] < 0 ? -terms[k] : terms[k]) - 1;
  }
  constexpr bool subtracts(std::size_t k) const noexcept {
    return terms[k] < 0;
  }
};

/// Product M_i = (sum of A quadrants) x (sum of B quadrants).
struct Product {
  Sum a;
  Sum b;
};

inline constexpr std::array<Product, 7> kProducts{{
    {{k11, k22}, {k11, k22}},   // M1
    {{k21, k22}, {k11}},        // M2
    {{k11}, {k12, -k22}},       // M3
    {{k22}, {k21, -k11}},       // M4
    {{k11, k12}, {k22}},        // M5
    {{k21, -k11}, {k11, k12}},  // M6
    {{k12, -k22}, {k21, k22}},  // M7
}};

/// C11, C12, C21, C22 as sums of the products.
inline constexpr std::array<Sum, 4> kCombine{{
    {{1, 4, -5, 7}},
    {{3, 5}},
    {{2, 4}},
    {{1, -2, 3, 6}},
}};

/// Operand matrices per node: one A side and one B side per product.
inline constexpr std::size_t kOperands = 2 * kProducts.size();

// ---- Per-node counts, as the executors perform them. -------------------

/// Sums f(s) over the fourteen operand sums.
template <typename F>
constexpr std::size_t over_operands(F f) noexcept {
  std::size_t total = 0;
  for (const Product& p : kProducts) total += f(p.a) + f(p.b);
  return total;
}

/// Binary add/sub ops that form the multi-term operands.
constexpr std::size_t operand_additions() noexcept {
  return over_operands([](const Sum& s) { return s.size() - 1; });
}

/// Single-term operands: used in place by Strassen and CAPS, copied into
/// private buffers by dist-CAPS. CAPS BFS steps still book the copies of
/// the paper's buffered step.
constexpr std::size_t operand_copies() noexcept {
  return over_operands([](const Sum& s) { return std::size_t{s.size() == 1}; });
}

/// Binary plus in-place ops that assemble the four C quadrants from the
/// products.
constexpr std::size_t combine_additions() noexcept {
  std::size_t ops = 0;
  for (const Sum& q : kCombine) ops += q.size() - 1;
  return ops;
}

/// Most operand temporaries one product holds at once.
constexpr std::size_t max_operand_temporaries() noexcept {
  std::size_t most = 0;
  for (const Product& p : kProducts) {
    const std::size_t t = (p.a.size() > 1) + (p.b.size() > 1);
    most = t > most ? t : most;
  }
  return most;
}

static_assert(operand_additions() + combine_additions() == 18,
              "classic Strassen performs 18 quadrant additions per node");

// ---- The node schedule. -------------------------------------------------

/// The buffers a node's schedule writes: C's quadrants, in kCombine
/// order, and the one product temporary.
enum Buffer : int { kC11, kC12, kC21, kC22, kT };

/// One step of kSchedule: store product `x` (1..7) into dst, dst = x ± y,
/// or dst ±= x, where x and y name buffers for the two add/sub kinds.
struct Step {
  enum Kind { kProduct, kBinary, kAccumulate };
  Kind kind;
  int dst;
  int x;
  int y;
  bool subtract;
};

constexpr Step store(int product, int dst) {
  return {Step::kProduct, dst, product, 0, false};
}
constexpr Step binary(int dst, int x, int y, bool subtract) {
  return {Step::kBinary, dst, x, y, subtract};
}
constexpr Step accumulate(int dst, int x, bool subtract) {
  return {Step::kAccumulate, dst, x, 0, subtract};
}

/// A node's products and C additions in the order that keeps the fewest
/// buffers live: one product temporary besides C's own quadrants.
inline constexpr std::array<Step, 15> kSchedule{{
    store(2, kC21),
    store(1, kC11),
    binary(kC22, kC11, kC21, true),  // C22 = M1 - M2
    store(3, kC12),
    accumulate(kC22, kC12, false),   // C22 = M1 - M2 + M3
    store(6, kT),
    accumulate(kC22, kT, false),     // C22 = M1 - M2 + M3 + M6
    store(4, kT),
    accumulate(kC11, kT, false),     // C11 = M1 + M4
    accumulate(kC21, kT, false),     // C21 = M2 + M4
    store(5, kT),
    accumulate(kC11, kT, true),      // C11 = M1 + M4 - M5
    accumulate(kC12, kT, false),     // C12 = M3 + M5
    store(7, kT),
    accumulate(kC11, kT, false),     // C11 = M1 + M4 - M5 + M7
}};

/// Appends single-product sum `term` to the left-to-right sum `s`;
/// false when that would not keep s a left-to-right sum of products.
constexpr bool append(Sum& s, const Sum& term, bool subtract) {
  const std::size_t n = s.size();
  if (n == 0 || n == s.terms.size() || term.size() != 1 || term.terms[0] < 0) {
    return false;
  }
  s.terms[n] = subtract ? -term.terms[0] : term.terms[0];
  return true;
}

/// Replays kSchedule over symbolic sums: true when each product is
/// stored once, every add/sub step extends a left-to-right sum by one
/// stored product, and each C quadrant ends as exactly kCombine's sum,
/// term for term in the same order.
constexpr bool schedule_matches_combine() {
  std::array<Sum, 5> held{};
  std::array<int, kProducts.size()> stores{};
  for (const Step& s : kSchedule) {
    switch (s.kind) {
      case Step::kProduct:
        if (s.x < 1 || s.x > 7 || stores[s.x - 1]++ != 0) return false;
        held[s.dst] = Sum{{s.x}};
        break;
      case Step::kBinary:
        if (s.dst == s.x || s.dst == s.y) return false;
        held[s.dst] = held[s.x];
        if (!append(held[s.dst], held[s.y], s.subtract)) return false;
        break;
      case Step::kAccumulate:
        if (s.dst == s.x || !append(held[s.dst], held[s.x], s.subtract)) {
          return false;
        }
        break;
    }
  }
  for (std::size_t q = 0; q < kCombine.size(); ++q) {
    if (held[q].terms != kCombine[q].terms) return false;
  }
  return true;
}

/// Add/sub steps in kSchedule.
constexpr std::size_t schedule_additions() noexcept {
  std::size_t ops = 0;
  for (const Step& s : kSchedule) ops += s.kind != Step::kProduct;
  return ops;
}

/// The buffer kSchedule stores product i (0-based) into.
constexpr int destination(int i) noexcept {
  for (const Step& s : kSchedule) {
    if (s.kind == Step::kProduct && s.x == i + 1) return s.dst;
  }
  return kT;
}

/// The product (0-based) kSchedule stores k-th: a node that fans its
/// products out in this order meets a failing product in the order the
/// serial schedule does.
constexpr int stored_product(int k) noexcept {
  for (const Step& s : kSchedule) {
    if (s.kind == Step::kProduct && k-- == 0) return s.x - 1;
  }
  return -1;
}

static_assert(schedule_matches_combine(),
              "kSchedule must leave every C quadrant as kCombine's "
              "left-to-right sum");
static_assert(schedule_additions() == combine_additions(),
              "kSchedule performs kCombine's additions, no more");

// ---- Evaluation, shared by the executors and the replays. --------------
//
// `ops` is the executor's op set: ops.binary(x, y, dst, subtract),
// ops.accumulate(dst, src, subtract) and, for materialize(),
// ops.copy(src, dst).

template <typename View>
const View& quadrant(const linalg::Quadrants<View>& q, std::size_t i) {
  return i == 0 ? q.q11 : i == 1 ? q.q12 : i == 2 ? q.q21 : q.q22;
}

/// Writes multi-term sum `s` into dst, taking term i from term(i): one
/// binary op for the first two terms, one in-place op for each further
/// term.
template <typename Term, typename Dst, typename Ops>
void evaluate(const Sum& s, const Term& term, const Dst& dst, Ops&& ops) {
  ops.binary(term(s.index(0)), term(s.index(1)), dst, s.subtracts(1));
  for (std::size_t k = 2; k < s.size(); ++k) {
    ops.accumulate(dst, term(s.index(k)), s.subtracts(k));
  }
}

/// Writes operand sum `s` of the quadrants `q` into dst (a copy for a
/// single quadrant).
template <typename View, typename Dst, typename Ops>
void materialize(const Sum& s, const linalg::Quadrants<View>& q,
                 const Dst& dst, Ops&& ops) {
  if (s.size() == 1) {
    ops.copy(quadrant(q, s.index(0)), dst);
    return;
  }
  evaluate(s, [&](std::size_t i) { return quadrant(q, i); }, dst, ops);
}

/// Operand sum `s` as a view: the quadrant itself for a single term,
/// else the sum evaluated into the fresh buffer make() returns.
template <typename View, typename Make, typename Ops>
View operand(const Sum& s, const linalg::Quadrants<View>& q, Make&& make,
             Ops&& ops) {
  if (s.size() == 1) return quadrant(q, s.index(0));
  const auto dst = make();
  evaluate(s, [&](std::size_t i) { return quadrant(q, i); }, dst, ops);
  return View(dst);
}

/// Runs kSchedule over C's quadrants `c`: product(i, dst) computes
/// 0-based product i into dst, and ops performs each add/sub step.
/// kT stands for temp(i) while it holds product i.
template <typename View, typename Temp, typename Product, typename Ops>
void run_schedule(const linalg::Quadrants<View>& c, Temp&& temp,
                  Product&& product, Ops&& ops) {
  int held = 0;
  const auto buffer = [&](int b) -> View {
    return b == kT ? View(temp(held))
                   : quadrant(c, static_cast<std::size_t>(b));
  };
  for (const Step& s : kSchedule) {
    switch (s.kind) {
      case Step::kProduct:
        if (s.dst == kT) held = s.x - 1;
        product(s.x - 1, buffer(s.dst));
        break;
      case Step::kBinary:
        ops.binary(buffer(s.x), buffer(s.y), buffer(s.dst), s.subtract);
        break;
      case Step::kAccumulate:
        ops.accumulate(buffer(s.dst), buffer(s.x), s.subtract);
        break;
    }
  }
}

}  // namespace capow::strassen::scheme
