// The fast-multiply schemes, written once as data.
//
// Classic Strassen (the paper's Eq 7, corrected):
//
//   M1 = (A11 + A22)(B11 + B22)     M5 = (A11 + A12) B22
//   M2 = (A21 + A22) B11            M6 = (A21 - A11)(B11 + B12)
//   M3 = A11 (B12 - B22)            M7 = (A12 - A22)(B21 + B22)
//   M4 = A22 (B21 - B11)
//
//   C11 = M1 + M4 - M5 + M7         C12 = M3 + M5
//   C21 = M2 + M4                   C22 = M1 - M2 + M3 + M6
//
// Winograd's 15-addition form (the recursion BOTS labels
// "Strassen-Winograd"; Boyer et al., arXiv:0707.2347):
//
//   S1 = A21 + A22   S2 = S1 - A11   S3 = A11 - A21   S4 = A12 - S2
//   T1 = B12 - B11   T2 = B22 - T1   T3 = B22 - B12   T4 = T2 - B21
//   P1 = A11 B11   P2 = A12 B21   P3 = S4 B22   P4 = A22 T4
//   P5 = S1 T1     P6 = S2 T2     P7 = S3 T3
//   U2 = P6 + P1   U3 = P7 + U2   U4 = P5 + U2
//   C11 = P1 + P2   C12 = U4 + P3   C21 = U3 - P4   C22 = U3 + P5
//
// A Strassen node and a CAPS step run a scheme as one straight-line
// Program (kClassic, kWinograd) over A's, B's and C's quadrants and the
// temporaries X, Y and T, through one executor (strassen::node_step,
// frame.hpp). A static_assert replays each program symbolically and
// proves that every C quadrant is its textbook expression, operation for
// operation in the same operand order, so the result bits, -0.0 and NaN
// payloads included, are the textbook's. Each Program derives from its
// steps what the executor needs to fan it out and to retry a guarded
// product, and the counts the Strassen and CAPS cost models charge.
//
// kProducts and kCombine stay the classic textbook for the executors
// that keep seven product buffers: dist-CAPS's root and the CAPS
// replay's BFS levels.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <initializer_list>

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

// ---- Node programs. -----------------------------------------------------

/// The buffers a program names: A's, B's and C's quadrants, each in
/// linalg::Quadrants order, then the temporaries.
enum Buffer : int {
  kA11, kA12, kA21, kA22,
  kB11, kB12, kB21, kB22,
  kC11, kC12, kC21, kC22,
  kX, kY, kT,
  kBuffers
};

/// One step: dst = x * y as product `product` (0-based), or dst = x ± y.
/// dst may name x or y: the step then updates that buffer in place.
struct Step {
  enum Op { kMul, kAdd, kSub };
  Op op = kAdd;
  int dst = 0, x = 0, y = 0;
  int product = -1;
};

constexpr Step mul(int product, int dst, int x, int y) {
  return {Step::kMul, dst, x, y, product - 1};
}
constexpr Step add(int dst, int x, int y) { return {Step::kAdd, dst, x, y}; }
constexpr Step sub(int dst, int x, int y) { return {Step::kSub, dst, x, y}; }

inline constexpr std::size_t kMaxSteps = 25;

/// The value buffer b holds when a node starts; values written by the
/// program are numbered by the step that writes them.
constexpr int entry(int b) noexcept { return -1 - b; }

/// A node program plus what its steps imply for the executor.
struct Program {
  std::array<Step, kMaxSteps> steps{};
  std::size_t size = 0;
  /// The values step k reads as x and y.
  std::array<std::array<int, 2>, kMaxSteps> src{};
  /// The products (bit i for product i) that read step k's value,
  /// directly or through other steps. An add/sub step with readers is an
  /// operand step, one without a combine step.
  std::array<unsigned, kMaxSteps> readers{};
  /// Operand steps only their own product reads that form their value
  /// from A's and B's quadrants alone, directly or through such steps:
  /// a retry of the product re-runs them, so compute.flip may strike them.
  std::array<bool, kMaxSteps> reformable{};
  /// Product steps that are the first to write their C quadrant.
  std::array<bool, kMaxSteps> first_write{};
  /// Step k of each product, in the order the program stores them.
  std::array<int, 7> products{};

  constexpr Program(std::initializer_list<Step> list) {
    std::array<int, kBuffers> last{};
    for (int b = 0; b < kBuffers; ++b) last[b] = entry(b);
    int stored = 0;
    for (const Step& s : list) {
      const int k = static_cast<int>(size++);
      steps[k] = s;
      src[k] = {last[s.x], last[s.y]};
      first_write[k] = s.op == Step::kMul && s.dst < kX &&
                       last[s.dst] == entry(s.dst);
      if (s.op == Step::kMul) products[stored++] = k;
      last[s.dst] = k;
    }
    for (int k = static_cast<int>(size); k-- > 0;) {
      const unsigned r =
          steps[k].op == Step::kMul ? 1u << steps[k].product : readers[k];
      for (const int v : src[k]) {
        if (v >= 0) readers[v] |= r;
      }
    }
    for (std::size_t k = 0; k < size; ++k) {
      reformable[k] = steps[k].op != Step::kMul &&
                      std::popcount(readers[k]) == 1 &&
                      (src[k][0] < 0 || reformable[src[k][0]]) &&
                      (src[k][1] < 0 || reformable[src[k][1]]);
    }
  }

  constexpr const Step* begin() const noexcept { return steps.data(); }
  constexpr const Step* end() const noexcept { return steps.data() + size; }

  /// Operand steps more than one product reads: on a pool they run
  /// before the products fan out.
  constexpr bool shared(std::size_t k) const noexcept {
    return std::popcount(readers[k]) > 1;
  }
  /// Whether step k is an operand step only product i reads.
  constexpr bool private_to(std::size_t k, int i) const noexcept {
    return steps[k].op != Step::kMul && readers[k] == 1u << i;
  }
  constexpr bool combines(std::size_t k) const noexcept {
    return steps[k].op != Step::kMul && readers[k] == 0;
  }

  // ---- Per-node counts, as the executor performs them. ----

  /// Steps k for which f(k) holds.
  template <typename F>
  constexpr std::size_t count(F f) const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < size; ++k) n += f(k);
    return n;
  }
  /// Add/sub steps that form the products' operands.
  constexpr std::size_t operand_additions() const {
    return count([&](std::size_t k) {
      return steps[k].op != Step::kMul && readers[k] != 0;
    });
  }
  /// Add/sub steps that assemble C from the products.
  constexpr std::size_t combine_additions() const {
    return count([&](std::size_t k) { return combines(k); });
  }
  /// Product operands that are quadrants of A or B, read in place.
  constexpr std::size_t quadrant_operands() const {
    return count([&](std::size_t k) {
      return steps[k].op == Step::kMul ? (src[k][0] < 0) + (src[k][1] < 0) : 0;
    });
  }
  /// Temporaries the program writes: the h x h buffers a serial node
  /// leases.
  constexpr std::size_t temporaries() const {
    unsigned used = 0;
    for (const Step& s : *this) used |= s.dst >= kX ? 1u << (s.dst - kX) : 0u;
    return static_cast<std::size_t>(std::popcount(used));
  }
};

/// The classic scheme. A product's operand sums go to X (A side) and Y
/// (B side) right before it; M1..M3 start the C quadrants whose sums they
/// begin, and M4..M7 pass through T.
inline constexpr Program kClassic{
    add(kX, kA21, kA22), mul(2, kC21, kX, kB11),
    add(kX, kA11, kA22), add(kY, kB11, kB22), mul(1, kC11, kX, kY),
    sub(kC22, kC11, kC21),    // C22 = M1 - M2
    sub(kY, kB12, kB22), mul(3, kC12, kA11, kY),
    add(kC22, kC22, kC12),    // C22 = M1 - M2 + M3
    sub(kX, kA21, kA11), add(kY, kB11, kB12), mul(6, kT, kX, kY),
    add(kC22, kC22, kT),      // C22 = M1 - M2 + M3 + M6
    sub(kY, kB21, kB11), mul(4, kT, kA22, kY),
    add(kC11, kC11, kT),      // C11 = M1 + M4
    add(kC21, kC21, kT),      // C21 = M2 + M4
    add(kX, kA11, kA12), mul(5, kT, kX, kB22),
    sub(kC11, kC11, kT),      // C11 = M1 + M4 - M5
    add(kC12, kC12, kT),      // C12 = M3 + M5
    sub(kX, kA12, kA22), add(kY, kB21, kB22), mul(7, kT, kX, kY),
    add(kC11, kC11, kT),      // C11 = M1 + M4 - M5 + M7
};

/// Winograd's scheme in two temporaries: X carries S3, S1, S2, S4 and
/// then P1; Y carries T3, T1, T2 and T4.
inline constexpr Program kWinograd{
    sub(kX, kA11, kA21), sub(kY, kB22, kB12), mul(7, kC21, kX, kY),
    add(kX, kA21, kA22), sub(kY, kB12, kB11), mul(5, kC22, kX, kY),
    sub(kX, kX, kA11), sub(kY, kB22, kY), mul(6, kC12, kX, kY),
    sub(kX, kA12, kX), mul(3, kC11, kX, kB22),
    mul(1, kX, kA11, kB11),
    add(kC12, kC12, kX),      // U2 = P6 + P1
    add(kC21, kC21, kC12),    // U3 = P7 + U2
    add(kC12, kC22, kC12),    // U4 = P5 + U2
    add(kC22, kC21, kC22),    // C22 = U3 + P5
    add(kC12, kC12, kC11),    // C12 = U4 + P3
    sub(kY, kY, kB21), mul(4, kC11, kA22, kY),
    sub(kC21, kC21, kC11),    // C21 = U3 - P4
    mul(2, kC11, kA12, kB21),
    add(kC11, kX, kC11),      // C11 = P1 + P2
};

constexpr const Program& program(bool winograd) noexcept {
  return winograd ? kWinograd : kClassic;
}

// ---- The replay that checks each program against its textbook. ---------

/// Expressions interned by shape: two evaluations get the same id, and
/// so round alike, exactly when they apply the same operations to the
/// same inputs in the same operand order.
struct Exprs {
  std::array<std::array<int, 3>, 96> nodes{};
  int size = 0;

  /// The id of op(x, y), product i being op 3 + i; -1 when an input is
  /// undefined or the table is full.
  constexpr int op(int o, int x, int y) {
    const std::array<int, 3> n{o, x, y};
    for (int i = 0; i < size; ++i) {
      if (nodes[i] == n) return i;
    }
    if (x < 0 || y < 0 || size == static_cast<int>(nodes.size())) return -1;
    nodes[size] = n;
    return size++;
  }
  /// The id of buffer b as a node receives it.
  constexpr int leaf(int b) { return op(-1 - b, 0, 0); }
};

/// Winograd's intermediates and products, named beyond kBuffers.
enum WinogradName : int {
  kS1 = kBuffers, kS2, kS3, kS4, kT1, kT2, kT3, kT4,
  kP1, kP2, kP3, kP4, kP5, kP6, kP7, kU2, kU3, kU4, kNames
};

/// Runs `steps` over symbolic values; returns C11..C22's ids.
template <typename Steps>
constexpr std::array<int, 4> replay(const Steps& steps, Exprs& e) {
  std::array<int, kNames> held{};
  for (int b = 0; b < kNames; ++b) held[b] = b < kC11 ? e.leaf(b) : -1;
  for (const Step& s : steps) {
    held[s.dst] = e.op(s.op == Step::kMul ? 3 + s.product : s.op, held[s.x],
                       held[s.y]);
  }
  return {held[kC11], held[kC12], held[kC21], held[kC22]};
}

/// The classic textbook: kProducts' sums, then kCombine's, left to right.
constexpr std::array<int, 4> classic_textbook(Exprs& e) {
  const auto sum = [&](const Sum& s, const int* terms) {
    int v = terms[s.index(0)];
    for (std::size_t k = 1; k < s.size(); ++k) {
      v = e.op(s.subtracts(k) ? Step::kSub : Step::kAdd, v,
               terms[s.index(k)]);
    }
    return v;
  };
  std::array<int, kC11> leaves{};
  for (int b = 0; b < kC11; ++b) leaves[b] = e.leaf(b);
  std::array<int, 7> m{};
  for (int i = 0; i < 7; ++i) {
    m[i] = e.op(3 + i, sum(kProducts[i].a, leaves.data()),
                sum(kProducts[i].b, leaves.data() + 4));
  }
  std::array<int, 4> c{};
  for (std::size_t q = 0; q < 4; ++q) c[q] = sum(kCombine[q], m.data());
  return c;
}

/// Winograd's textbook, as the header states it.
inline constexpr Step kWinogradTextbook[] = {
    add(kS1, kA21, kA22), sub(kS2, kS1, kA11), sub(kS3, kA11, kA21),
    sub(kS4, kA12, kS2),  sub(kT1, kB12, kB11), sub(kT2, kB22, kT1),
    sub(kT3, kB22, kB12), sub(kT4, kT2, kB21),
    mul(1, kP1, kA11, kB11), mul(2, kP2, kA12, kB21), mul(3, kP3, kS4, kB22),
    mul(4, kP4, kA22, kT4),  mul(5, kP5, kS1, kT1),   mul(6, kP6, kS2, kT2),
    mul(7, kP7, kS3, kT3),
    add(kC11, kP1, kP2), add(kU2, kP6, kP1), add(kU3, kP7, kU2),
    add(kC22, kU3, kP5), add(kU4, kP5, kU2), add(kC12, kU4, kP3),
    sub(kC21, kU3, kP4),
};

/// True when `p` leaves each C quadrant as `textbook` does, in the shape
/// node_step assumes: products stored once, not over their operands;
/// operand steps from A, B and operand steps into temporaries; combine
/// steps from products and combines into C, which ends in combines or
/// first-write products; reformable steps still held when their product
/// runs, so a serial retry can re-run them.
template <typename Textbook>
constexpr bool matches(const Program& p, Textbook textbook) {
  std::array<int, 7> stores{};
  std::array<int, kBuffers> last{};
  for (int b = 0; b < kBuffers; ++b) last[b] = entry(b);
  for (std::size_t k = 0; k < p.size; ++k) {
    const Step& s = p.steps[k];
    const bool mul = s.op == Step::kMul;
    if (s.dst < kC11 || (!mul && (p.readers[k] != 0) != (s.dst >= kX)) ||
        (mul && (stores[s.product]++ || s.dst == s.x || s.dst == s.y))) {
      return false;
    }
    for (const int v : p.src[k]) {
      const bool operand = v >= 0 && p.steps[v].op != Step::kMul &&
                           p.readers[v] != 0;
      const bool quadrant = v < 0 && v >= entry(kB22);
      if (p.combines(k) ? v < 0 || operand : !(quadrant || operand)) {
        return false;
      }
    }
    for (std::size_t q = 0; mul && q < k; ++q) {
      if (p.reformable[q] && p.private_to(q, s.product) &&
          last[p.steps[q].dst] != static_cast<int>(q)) {
        return false;
      }
    }
    last[s.dst] = static_cast<int>(k);
  }
  for (int c = kC11; c < kX; ++c) {
    if (last[c] < 0 || !(p.combines(last[c]) || p.first_write[last[c]])) {
      return false;
    }
  }
  Exprs e;
  const std::array<int, 4> want = textbook(e);
  return want[0] >= 0 && replay(p, e) == want;
}

static_assert(matches(kClassic, classic_textbook),
              "kClassic must evaluate the classic textbook");
static_assert(matches(kWinograd,
                      [](Exprs& e) { return replay(kWinogradTextbook, e); }),
              "kWinograd must evaluate Winograd's textbook");
static_assert(kClassic.operand_additions() == 10 &&
                  kClassic.combine_additions() == 8 &&
                  kWinograd.operand_additions() +
                          kWinograd.combine_additions() ==
                      15,
              "classic adds 10 + 8 quadrants per node, Winograd 15");

// ---- Evaluation of the textbook, for the seven-buffer executors. -------
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

}  // namespace capow::strassen::scheme
