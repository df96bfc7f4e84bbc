#include "workload.hpp"

#include <cmath>
#include <utility>

#include "capow/api/matmul.hpp"

namespace perfbench {

using capow::core::AlgorithmId;
namespace linalg = capow::linalg;
namespace serve = capow::serve;

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kGemm: return "gemm";
    case Kind::kStrassen: return "strassen";
    case Kind::kCaps: return "caps";
    case Kind::kServe: return "serve";
  }
  return "?";
}

AlgorithmId algorithm_of(Kind k) noexcept {
  switch (k) {
    case Kind::kStrassen: return AlgorithmId::kStrassen;
    case Kind::kCaps: return AlgorithmId::kCaps;
    default: return AlgorithmId::kOpenBlas;
  }
}

const std::vector<Workload>& workloads() {
  // Closed-loop rounds hold an odd number of classes whose times are well
  // apart, so the median falls inside one class instead of on a boundary
  // between two, where it would jump with every run.
  static const std::vector<Workload> all = {
      {"gemm_large",
       false,
       {{Kind::kGemm, 768},
        {Kind::kGemm, 960},
        {Kind::kGemm, 1152},
        {Kind::kGemm, 1344},
        {Kind::kGemm, 1536}}},
      {"fast_recursion",
       false,
       {{Kind::kStrassen, 520},
        {Kind::kCaps, 641},
        {Kind::kStrassen, 769},
        {Kind::kCaps, 896},
        {Kind::kStrassen, 1024}}},
      // n=160 carries four ninths of the requests, so the median lands
      // inside that class; n=224 is rare enough that the tail stays in
      // the body of its guaranteed (ABFT correct) requests.
      {"serve_open",
       true,
       {{Kind::kServe, 96, 2},
        {Kind::kServe, 128, 2},
        {Kind::kServe, 160, 4},
        {Kind::kServe, 224, 1}}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Op> closed_round(const Workload& w, std::uint64_t seed,
                             std::uint64_t round, std::uint64_t first_index) {
  std::vector<std::size_t> order(w.classes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng r(mix_seed(seed ^ 0x0dde5eedull, round));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[r.below(i)]);
  }
  std::vector<Op> ops;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Op op;
    op.index = first_index + i;
    op.cls = order[i];
    op.kind = w.classes[op.cls].kind;
    op.n = w.classes[op.cls].n;
    op.seed = mix_seed(seed, op.index);
    ops.push_back(op);
  }
  return ops;
}

std::vector<Op> open_schedule(const Workload& w, std::uint64_t seed,
                              double seconds) {
  std::vector<Op> ops;
  unsigned total_weight = 0;
  for (const OpClass& c : w.classes) total_weight += c.weight;
  Rng r(mix_seed(seed, 0xa771ea1ull));
  double t = 0.0;
  for (;;) {
    const double share = t / seconds;
    const bool burst = share >= kServeBurstStart && share < kServeBurstEnd;
    const double rate = kServeRatePerS * (burst ? kServeBurstFactor : 1.0);
    t += -std::log(1.0 - r.unit()) / rate;
    if (t >= seconds) break;
    Op op;
    op.index = ops.size();
    std::size_t pick = r.below(total_weight);
    while (pick >= w.classes[op.cls].weight) {
      pick -= w.classes[op.cls].weight;
      ++op.cls;
    }
    op.kind = w.classes[op.cls].kind;
    op.n = w.classes[op.cls].n;
    op.due_s = t;
    op.guaranteed = r.unit() < kServeGuaranteedShare;
    op.seed = r.next();
    ops.push_back(op);
  }
  return ops;
}

SequenceHash sequence_hash(const Workload& w, std::uint64_t seed,
                           double seconds) {
  std::vector<Op> ops;
  if (w.open_loop) {
    ops = open_schedule(w, seed, seconds);
  } else {
    for (std::uint64_t round = 0; round < 64; ++round) {
      const std::vector<Op> r = closed_round(w, seed, round, ops.size());
      ops.insert(ops.end(), r.begin(), r.end());
    }
  }
  SequenceHash h;
  for (const Op& op : ops) {
    h.add(static_cast<std::uint64_t>(op.kind));
    h.add(static_cast<std::uint64_t>(op.n));
    h.add(op.due_s);
    h.add(static_cast<std::uint64_t>(op.guaranteed));
    h.add(op.seed);
  }
  return h;
}

serve::Request request_for(const Op& op) {
  serve::Request req;
  req.id = op.index + 1;
  req.arrival_s = op.due_s;
  req.n = op.n;
  req.tier = op.guaranteed ? serve::QosTier::kGuaranteed
                           : serve::QosTier::kBestEffort;
  req.abft = op.guaranteed ? capow::abft::AbftMode::kCorrect
                           : capow::abft::AbftMode::kOff;
  return req;
}

Engine::Engine(const Workload& w) {
  for (const OpClass& c : w.classes) {
    if (c.kind == Kind::kServe && !server_) {
      server_ = std::make_unique<serve::Server>(serve::ServeOptions{});
    }
  }
}

bool Engine::run(const Op& op, linalg::ConstMatrixView a,
                 linalg::ConstMatrixView b, linalg::MatrixView c) {
  switch (op.kind) {
    case Kind::kGemm:
    case Kind::kStrassen:
    case Kind::kCaps: {
      capow::MatmulOptions mo;
      mo.algorithm = algorithm_of(op.kind);
      capow::matmul(a, b, c, mo);
      return true;
    }
    case Kind::kServe: {
      const serve::Outcome out = server_->serve_one(request_for(op), a, b, c);
      if (out == serve::Outcome::kCompleted) return true;
      last_reject_ = server_->last_reject_reason();
      return false;
    }
  }
  return false;
}

}  // namespace perfbench
