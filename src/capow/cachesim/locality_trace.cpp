#include "capow/cachesim/locality_trace.hpp"

#include <stdexcept>

#include "capow/linalg/partition.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/strassen/strassen.hpp"

namespace capow::cachesim {

namespace {

namespace scheme = strassen::scheme;

constexpr std::uint64_t kWord = sizeof(double);

/// A rectangular window of the traced address space (strided like a
/// MatrixView: rows of `cols` doubles, `ld` doubles apart).
struct Region {
  std::uint64_t addr = 0;  // byte address of element (0, 0)
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t ld = 0;  // row stride in doubles

  Region quadrant(int which) const {
    const std::size_t hr = rows / 2;
    const std::size_t hc = cols / 2;
    Region q{addr, hr, hc, ld};
    if (which == 1 || which == 3) q.addr += hc * kWord;
    if (which == 2 || which == 3) q.addr += hr * ld * kWord;
    return q;
  }
  linalg::Quadrants<Region> split() const {
    return {quadrant(0), quadrant(1), quadrant(2), quadrant(3)};
  }
  std::size_t elems() const noexcept { return rows * cols; }
};

/// Bump/stack allocator mirroring the implementations' nested Matrix
/// lifetimes: child buffers live above their parents and are released
/// in LIFO order.
class RegionAllocator {
 public:
  explicit RegionAllocator(std::uint64_t base) : top_(base) {}

  Region alloc(std::size_t n) {
    const std::uint64_t addr = top_;
    top_ += (n * n * kWord + 63) / 64 * 64;
    return Region{addr, n, n, n};
  }
  std::uint64_t mark() const noexcept { return top_; }
  void release(std::uint64_t m) noexcept { top_ = m; }

 private:
  std::uint64_t top_;
};

/// Shared replay context: the hierarchy plus logical-byte accounting.
struct Tracer {
  CacheHierarchy hierarchy;
  std::uint64_t logical_bytes = 0;

  void touch(const Region& r) {
    for (std::size_t i = 0; i < r.rows; ++i) {
      hierarchy.access(r.addr + i * r.ld * kWord, r.cols * kWord);
    }
  }

  // The scheme's op set (signs do not change what is touched).
  // Binary elementwise op: read a, read b, write dst (3 words/element).
  void binary(const Region& a, const Region& b, const Region& dst,
              bool /*subtract*/) {
    touch(a);
    touch(b);
    touch(dst);
    logical_bytes += 3 * dst.elems() * kWord;
  }
  // In-place accumulate: dst read+write plus src read — the same 3
  // words/element convention the instrumentation uses.
  void accumulate(const Region& dst, const Region& src,
                  bool /*subtract*/) {
    touch(src);
    touch(dst);  // read-modify-write: one walk covers both directions
    logical_bytes += 3 * dst.elems() * kWord;
  }
  void copy(const Region& src, const Region& dst) {
    touch(src);
    touch(dst);
    logical_bytes += 2 * dst.elems() * kWord;
  }

  // Base multiply, real access shape: per output row, stream the A row,
  // all of B, and the C row. Logical accounting keeps the
  // instrumentation's 3 b^2 convention.
  void base_multiply(const Region& a, const Region& b, const Region& c) {
    for (std::size_t i = 0; i < c.rows; ++i) {
      hierarchy.access(a.addr + i * a.ld * kWord, a.cols * kWord);
      touch(b);
      hierarchy.access(c.addr + i * c.ld * kWord, c.cols * kWord);
    }
    logical_bytes += 3 * c.elems() * kWord;
  }
};

// ---- Replays (each mirrors its implementation's serial order).

/// CAPS's BFS levels (depth < bfs_depth) materialize all 14 operands,
/// run the 7 products, then combine, as the paper's buffered step does;
/// every other CAPS level and every Strassen level runs scheme::kClassic
/// in order over its three temporaries, as the serial node does.
void replay(Tracer& t, RegionAllocator& heap, const Region& a,
            const Region& b, const Region& c, std::size_t cutoff,
            std::size_t bfs_depth, std::size_t depth) {
  if (a.rows <= cutoff) {
    t.base_multiply(a, b, c);
    return;
  }
  const std::size_t h = a.rows / 2;
  const auto qa = a.split(), qb = b.split(), qc = c.split();
  const std::uint64_t mark = heap.mark();

  if (depth < bfs_depth) {
    Region la[7], lb[7], q[7];
    for (auto& r : la) r = heap.alloc(h);
    for (auto& r : lb) r = heap.alloc(h);
    for (auto& r : q) r = heap.alloc(h);
    for (std::size_t i = 0; i < 7; ++i) {
      scheme::materialize(scheme::kProducts[i].a, qa, la[i], t);
    }
    for (std::size_t i = 0; i < 7; ++i) {
      scheme::materialize(scheme::kProducts[i].b, qb, lb[i], t);
    }
    for (std::size_t i = 0; i < 7; ++i) {
      replay(t, heap, la[i], lb[i], q[i], cutoff, bfs_depth, depth + 1);
    }
    for (std::size_t quad = 0; quad < scheme::kCombine.size(); ++quad) {
      scheme::evaluate(
          scheme::kCombine[quad], [&](std::size_t i) { return q[i]; },
          scheme::quadrant(qc, quad), t);
    }
    heap.release(mark);
    return;
  }

  Region temp[scheme::kBuffers - scheme::kX];
  for (Region& r : temp) r = heap.alloc(h);
  const auto buffer = [&](int n) {
    const std::size_t i = static_cast<std::size_t>(n % 4);
    return n < scheme::kB11   ? scheme::quadrant(qa, i)
           : n < scheme::kC11 ? scheme::quadrant(qb, i)
           : n < scheme::kX   ? scheme::quadrant(qc, i)
                              : temp[n - scheme::kX];
  };
  for (const scheme::Step& s : scheme::kClassic) {
    const bool subtract = s.op == scheme::Step::kSub;
    if (s.op == scheme::Step::kMul) {
      replay(t, heap, buffer(s.x), buffer(s.y), buffer(s.dst), cutoff,
             bfs_depth, depth + 1);
    } else if (s.dst == s.x) {
      t.accumulate(buffer(s.dst), buffer(s.y), subtract);
    } else {
      t.binary(buffer(s.x), buffer(s.y), buffer(s.dst), subtract);
    }
  }
  heap.release(mark);
}

struct Operands {
  Region a, b, c;
  std::uint64_t heap_base;
};

Operands layout(std::size_t n) {
  const std::uint64_t bytes = n * n * kWord;
  return Operands{Region{0, n, n, n}, Region{bytes, n, n, n},
                  Region{2 * bytes, n, n, n}, 3 * bytes};
}

void validate_args(std::size_t n, std::size_t cutoff) {
  if (cutoff == 0) {
    throw std::invalid_argument("locality trace: zero cutoff");
  }
  if (strassen::peel_dimension(n, cutoff) != n) {
    throw std::invalid_argument(
        "locality trace: n must be base*2^k for the cutoff (no border)");
  }
}

LocalityReport finish(Tracer& t) {
  LocalityReport r;
  r.logical_bytes = t.logical_bytes;
  r.dram_bytes = t.hierarchy.dram_bytes();
  for (std::size_t i = 0; i < t.hierarchy.level_count(); ++i) {
    r.levels.push_back(t.hierarchy.level_stats(i));
  }
  return r;
}

}  // namespace

LocalityReport strassen_locality(std::size_t n, std::size_t base_cutoff,
                                 const machine::MachineSpec& spec) {
  validate_args(n, base_cutoff);
  const Operands ops = layout(n);
  Tracer t{CacheHierarchy::from_machine(spec)};
  RegionAllocator heap(ops.heap_base);
  replay(t, heap, ops.a, ops.b, ops.c, base_cutoff, 0, 0);
  return finish(t);
}

LocalityReport caps_locality(std::size_t n, std::size_t base_cutoff,
                             std::size_t bfs_cutoff_depth,
                             const machine::MachineSpec& spec) {
  validate_args(n, base_cutoff);
  const Operands ops = layout(n);
  Tracer t{CacheHierarchy::from_machine(spec)};
  RegionAllocator heap(ops.heap_base);
  replay(t, heap, ops.a, ops.b, ops.c, base_cutoff, bfs_cutoff_depth, 0);
  return finish(t);
}

}  // namespace capow::cachesim
