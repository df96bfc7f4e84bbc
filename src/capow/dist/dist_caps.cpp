#include "capow/dist/dist_caps.hpp"

#include <array>

#include "capow/linalg/ops.hpp"
#include "capow/linalg/partition.hpp"
#include "capow/strassen/base_kernel.hpp"
#include "capow/strassen/counted_ops.hpp"
#include "capow/strassen/scheme.hpp"
#include "capow/telemetry/tracer.hpp"

namespace capow::dist {

namespace {

using linalg::ConstMatrixView;
using linalg::Matrix;
using linalg::MatrixView;
namespace scheme = strassen::scheme;

// Tag layout: distributed levels are disambiguated by depth (each
// leader/sub-leader pair exchanges at most one sub-problem per depth).
constexpr int kOperandTagBase = 100;  // + depth * 16 + subproblem
constexpr int kResultTagBase = 4000;  // + depth * 16 + subproblem
constexpr int kScatterTag = 300;
constexpr int kGatherTag = 302;

// Leader side: materialize the 14 classic-Strassen operand combinations,
// all A sides first, then all B sides.
void materialize_all(ConstMatrixView a, ConstMatrixView b,
                     std::array<Matrix, 7>& la, std::array<Matrix, 7>& lb) {
  const auto qa = linalg::partition(a);
  const auto qb = linalg::partition(b);
  const std::size_t h = a.rows() / 2;
  for (int i = 0; i < 7; ++i) {
    la[i] = Matrix(h, h);
    lb[i] = Matrix(h, h);
  }
  for (int i = 0; i < 7; ++i) {
    scheme::materialize(scheme::kProducts[i].a, qa, la[i].view(),
                        strassen::CountedOps{});
  }
  for (int i = 0; i < 7; ++i) {
    scheme::materialize(scheme::kProducts[i].b, qb, lb[i].view(),
                        strassen::CountedOps{});
  }
}

void combine(const std::array<Matrix, 7>& q, MatrixView c) {
  const auto qc = linalg::partition(c);
  for (std::size_t quad = 0; quad < scheme::kCombine.size(); ++quad) {
    scheme::evaluate(
        scheme::kCombine[quad], [&](std::size_t i) { return q[i].view(); },
        scheme::quadrant(qc, quad), strassen::CountedOps{});
  }
}

// A contiguous rank group [lo, hi) whose first rank is the leader.
struct Group {
  int lo;
  int hi;

  int size() const noexcept { return hi - lo; }
  int leader() const noexcept { return lo; }
  /// Sub-group i of the 7-way split (sizes balanced by division).
  Group chunk(int i) const noexcept {
    return Group{lo + size() * i / 7, lo + size() * (i + 1) / 7};
  }
  bool contains(int rank) const noexcept {
    return rank >= lo && rank < hi;
  }
};

// Recursive distributed solve over `group`. Only the group leader holds
// meaningful (a, b, c) views; every group member must call this. The
// sub-problem dimension at each depth is deterministic from n, so
// non-leaders size their buffers without extra messages.
void solve_group(Communicator& comm, const Group& group,
                 ConstMatrixView a, ConstMatrixView b, MatrixView c,
                 std::size_t n, const DistCapsOptions& opts,
                 std::size_t depth) {
  telemetry::SpanScope span("dist_caps.solve_group", "dist", "depth", depth,
                            "group_size", group.size());
  const int me = comm.rank();
  const bool leader = me == group.leader();

  // Termination: solve locally on the leader.
  if (group.size() == 1 || n <= opts.distribute_threshold || n % 2 != 0 ||
      depth >= opts.max_distribution_levels) {
    if (leader) capsalg::multiply(a, b, c, opts.local);
    return;
  }

  const std::size_t h = n / 2;
  const int op_tag = kOperandTagBase + static_cast<int>(depth) * 16;
  const int res_tag = kResultTagBase + static_cast<int>(depth) * 16;

  // Product i's owner: with fewer than seven ranks the sub-products
  // round-robin over single ranks that solve locally (leaf
  // distribution); otherwise each of seven sub-groups, led by its first
  // rank, solves one sub-product recursively (tree distribution).
  const bool leaf = group.size() < 7;
  const auto owner_of = [&](int i) {
    if (!leaf) return group.chunk(i);
    const int rank = group.lo + i % group.size();
    return Group{rank, rank + 1};
  };
  const auto solve = [&](int i, ConstMatrixView la, ConstMatrixView lb,
                         MatrixView q) {
    if (leaf) {
      capsalg::multiply(la, lb, q, opts.local);
    } else {
      solve_group(comm, owner_of(i), la, lb, q, h, opts, depth + 1);
    }
  };

  if (leader) {
    std::array<Matrix, 7> la, lb, q;
    materialize_all(a, b, la, lb);
    // Ship operands to the other owners' leaders.
    for (int i = 0; i < 7; ++i) {
      const int owner = owner_of(i).leader();
      if (owner == me) continue;
      comm.send(owner, op_tag + i, flatten(la[i].view()));
      comm.send(owner, op_tag + i, flatten(lb[i].view()));
    }
    for (int i = 0; i < 7; ++i) q[i] = Matrix(h, h);
    // Solve our own share (in tree distribution: chunk 0, which the
    // leader leads).
    for (int i = 0; i < 7; ++i) {
      if (owner_of(i).contains(me)) {
        solve(i, la[i].view(), lb[i].view(), q[i].view());
      }
    }
    // Collect the remote results.
    for (int i = 0; i < 7; ++i) {
      const int owner = owner_of(i).leader();
      if (owner == me) continue;
      unflatten(comm.recv(owner, res_tag + i).payload, q[i].view());
    }
    combine(q, c);
    return;
  }

  // Non-leader: take part in every sub-product we own; each owner's
  // leader exchanges operands and result with the group leader.
  for (int i = 0; i < 7; ++i) {
    const Group owner = owner_of(i);
    if (!owner.contains(me)) continue;
    const bool exchanges = me == owner.leader();
    Matrix la, lb, q;
    if (exchanges) {
      la = Matrix(h, h);
      lb = Matrix(h, h);
      q = Matrix(h, h);
      unflatten(comm.recv(group.leader(), op_tag + i).payload, la.view());
      unflatten(comm.recv(group.leader(), op_tag + i).payload, lb.view());
    }
    solve(i, la.view(), lb.view(), q.view());
    if (exchanges) {
      comm.send(group.leader(), res_tag + i, flatten(q.view()));
    }
  }
}

}  // namespace

void dist_caps_multiply(Communicator& comm, ConstMatrixView a,
                        ConstMatrixView b, MatrixView c,
                        const DistCapsOptions& opts) {
  // Announce the dimension (deterministic buffer sizing everywhere).
  std::vector<double> shape{0.0};
  if (comm.rank() == 0) {
    linalg::check_product("dist_caps_multiply", a, b, c,
                          {.square = true, .disjoint = false});
    shape[0] = static_cast<double>(a.rows());
  }
  comm.broadcast(0, shape);
  const std::size_t n = static_cast<std::size_t>(shape.at(0));
  if (n == 0) return;

  telemetry::SpanScope span("dist_caps.multiply", "dist", "n", n, "rank",
                            comm.rank());
  solve_group(comm, Group{0, comm.size()}, a, b, c, n, opts, 0);
}

void dist_block_gemm(Communicator& comm, ConstMatrixView a,
                     ConstMatrixView b, MatrixView c) {
  const int ranks = comm.size();
  const int rank = comm.rank();

  std::vector<double> dims(3);
  if (rank == 0) {
    linalg::check_product("dist_block_gemm", a, b, c, {.disjoint = false});
    dims = {static_cast<double>(a.rows()), static_cast<double>(a.cols()),
            static_cast<double>(b.cols())};
  }
  comm.broadcast(0, dims);
  const auto m = static_cast<std::size_t>(dims[0]);
  const auto k = static_cast<std::size_t>(dims[1]);
  const auto n = static_cast<std::size_t>(dims[2]);

  // Row-block ownership: rank r owns rows [r*m/P, (r+1)*m/P).
  const auto row_lo = [&](int r) { return m * r / ranks; };
  const auto row_hi = [&](int r) { return m * (r + 1) / ranks; };

  // Scatter A row blocks; broadcast B.
  Matrix local_a;
  std::vector<double> bflat;
  if (rank == 0) {
    for (int r = 1; r < ranks; ++r) {
      if (row_hi(r) > row_lo(r)) {
        comm.send(r, kScatterTag,
                  flatten(a.block(row_lo(r), 0, row_hi(r) - row_lo(r), k)));
      }
    }
    local_a = Matrix(row_hi(0), k);
    linalg::copy(a.block(0, 0, row_hi(0), k), local_a.view());
    bflat = flatten(b);
  }
  comm.broadcast(0, bflat);
  Matrix local_b(k, n);
  unflatten(bflat, local_b.view());
  if (rank != 0) {
    const std::size_t rows = row_hi(rank) - row_lo(rank);
    local_a = Matrix(rows, k);
    if (rows > 0) {
      unflatten(comm.recv(0, kScatterTag).payload, local_a.view());
    }
  }

  // Local compute.
  Matrix local_c(local_a.rows(), n);
  if (local_a.rows() > 0) {
    strassen::base_gemm(local_a.view(), local_b.view(), local_c.view());
  }

  // Gather C row blocks.
  if (rank == 0) {
    linalg::copy(local_c.view(), c.block(0, 0, local_c.rows(), n));
    for (int r = 1; r < ranks; ++r) {
      const std::size_t rows = row_hi(r) - row_lo(r);
      if (rows == 0) continue;
      unflatten(comm.recv(r, kGatherTag).payload,
                c.block(row_lo(r), 0, rows, n));
    }
  } else if (local_c.rows() > 0) {
    comm.send(0, kGatherTag, flatten(local_c.view()));
  }
}

}  // namespace capow::dist
