// Tests for the mini-MPI runtime, distributed CAPS, and the
// interconnect energy model.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "capow/blas/gemm_ref.hpp"
#include "capow/dist/comm.hpp"
#include "capow/dist/dist_caps.hpp"
#include "capow/dist/energy.hpp"
#include "capow/dist/recovery.hpp"
#include "capow/dist/summa.hpp"
#include "capow/fault/fault.hpp"
#include "capow/linalg/ops.hpp"
#include "capow/linalg/random.hpp"
#include "capow/trace/counters.hpp"

namespace capow::dist {
namespace {

using linalg::Matrix;
using linalg::random_matrix;

TEST(World, RejectsZeroRanks) {
  EXPECT_THROW(World{0}, std::invalid_argument);
}

TEST(World, RunsEveryRank) {
  World world(4);
  std::atomic<int> mask{0};
  world.run([&](Communicator& comm) {
    mask.fetch_or(1 << comm.rank());
    EXPECT_EQ(comm.size(), 4);
  });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(World, PropagatesRankExceptions) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& comm) {
                 comm.barrier();  // both ranks reach here first
                 if (comm.rank() == 1) throw std::runtime_error("rank1");
               }),
               std::runtime_error);
}

TEST(Comm, PointToPointRoundTrip) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> payload{1.0, 2.0, 3.0};
      comm.send(1, 7, payload);
      const Message echo = comm.recv(1, 8);
      EXPECT_EQ(echo.payload, payload);
      EXPECT_EQ(echo.source, 1);
      EXPECT_EQ(echo.tag, 8);
    } else {
      Message m = comm.recv(0, 7);
      comm.send(0, 8, m.payload);
    }
  });
}

TEST(Comm, TagsAreSelective) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<double>{1.0});
      comm.send(1, 2, std::vector<double>{2.0});
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv(0, 2).payload[0], 2.0);
      EXPECT_EQ(comm.recv(0, 1).payload[0], 1.0);
    }
  });
}

TEST(Comm, SameTagPreservesOrder) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (double v : {1.0, 2.0, 3.0}) {
        comm.send(1, 5, std::vector<double>{v});
      }
    } else {
      for (double v : {1.0, 2.0, 3.0}) {
        EXPECT_EQ(comm.recv(0, 5).payload[0], v);
      }
    }
  });
}

TEST(Comm, InvalidRanksThrow) {
  World world(2);
  world.run([](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, std::vector<double>{}),
                 std::out_of_range);
    EXPECT_THROW(comm.recv(-1, 0), std::out_of_range);
  });
}

TEST(Comm, BarrierSynchronizesRepeatedly) {
  World world(3);
  std::atomic<int> phase{0};
  world.run([&](Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      phase.fetch_add(1);
      comm.barrier();
      // After the barrier all 3 increments of this round are visible.
      EXPECT_GE(phase.load(), 3 * (round + 1));
      comm.barrier();
    }
  });
  EXPECT_EQ(phase.load(), 15);
}

TEST(Comm, Broadcast) {
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == 2) data = {4.0, 5.0};
    comm.broadcast(2, data);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data[0], 4.0);
    EXPECT_EQ(data[1], 5.0);
  });
}

TEST(Comm, ReduceSum) {
  World world(4);
  world.run([](Communicator& comm) {
    std::vector<double> data{static_cast<double>(comm.rank() + 1)};
    comm.reduce_sum(0, data);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(data[0], 10.0);  // 1+2+3+4
    }
  });
}

TEST(Comm, GatherInRankOrder) {
  World world(3);
  world.run([](Communicator& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank() * 10)};
    std::vector<std::vector<double>> out;
    comm.gather(0, mine, out);
    if (comm.rank() == 0) {
      ASSERT_EQ(out.size(), 3u);
      EXPECT_EQ(out[0][0], 0.0);
      EXPECT_EQ(out[1][0], 10.0);
      EXPECT_EQ(out[2][0], 20.0);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST(Comm, MessageBytesAreCounted) {
  trace::Recorder rec;
  trace::RecordingScope scope(rec);
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>(100, 1.0));
    } else {
      comm.recv(0, 0);
    }
  });
  EXPECT_EQ(rec.total().messages, 1u);
  EXPECT_EQ(rec.total().message_bytes, 800u);
}

// ---- fault tolerance ----------------------------------------------------

WorldOptions fast_timeouts() {
  WorldOptions o;
  o.recv_timeout_seconds = 0.25;
  o.retry_backoff_us = 1.0;
  return o;
}

// Regression: recv() from a peer that exited without sending used to
// block forever on the mailbox condition variable; it must throw.
TEST(CommFault, RecvFromExitedPeerThrows) {
  World world(2, fast_timeouts());
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 1) comm.recv(0, 42);
                 // rank 0 exits immediately without sending.
               }),
               CommError);
}

TEST(CommFault, RecvTimesOut) {
  // Both ranks recv from each other but nobody sends: neither exits, so
  // only the timeout can unblock them.
  World world(2, fast_timeouts());
  EXPECT_THROW(world.run([](Communicator& comm) {
                 comm.recv(1 - comm.rank(), 0);
               }),
               CommError);
}

TEST(CommFault, PoisonedWorldUnblocksPeersAndKeepsRootCause) {
  // Rank 0 dies with a logic_error while rank 1 is blocked in recv.
  // Rank 1 must be woken with CommError, and run() must rethrow the
  // root cause, not the secondary CommError.
  World world(2, fast_timeouts());
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 0) throw std::logic_error("root cause");
                 comm.recv(0, 0);
               }),
               std::logic_error);
}

TEST(CommFault, BarrierUnblocksWhenPeerExits) {
  World world(2, fast_timeouts());
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 1) comm.barrier();
                 // rank 0 never arrives.
               }),
               CommError);
}

TEST(CommFault, SendRetriesThroughDroppedDeliveries) {
  fault::FaultPlan plan;
  plan.comm_drop = 0.4;
  plan.seed = 11;
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);

  World world(2, fast_timeouts());
  std::vector<double> received;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        comm.send(1, i, std::vector<double>{static_cast<double>(i)});
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        received.push_back(comm.recv(0, i).payload.at(0));
      }
    }
  });
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(received[static_cast<std::size_t>(i)], i);
  }
  // With p=0.4 over 50 messages some drops are statistically certain;
  // every drop must be matched by a retry that got the message through.
  EXPECT_GT(inj.count(fault::Event::kCommDrop), 0u);
  EXPECT_GE(inj.count(fault::Event::kCommRetry),
            inj.count(fault::Event::kCommDrop));
  EXPECT_EQ(inj.count(fault::Event::kCommSendFailure), 0u);
}

TEST(CommFault, SendFailsAfterExhaustingAttempts) {
  fault::FaultPlan plan;
  plan.comm_drop = 1.0;  // every delivery attempt is lost
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);

  WorldOptions opts = fast_timeouts();
  opts.max_send_attempts = 3;
  World world(2, opts);
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 0, std::vector<double>{1.0});
                 } else {
                   comm.recv(0, 0);
                 }
               }),
               CommError);
  EXPECT_EQ(inj.count(fault::Event::kCommSendFailure), 1u);
  EXPECT_EQ(inj.count(fault::Event::kCommDrop), 3u);
}

TEST(CommFault, CorruptedDeliveriesAreRetransmitted) {
  fault::FaultPlan plan;
  plan.comm_corrupt = 0.5;
  plan.seed = 21;
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);

  World world(2, fast_timeouts());
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 40; ++i) {
        comm.send(1, i, std::vector<double>{3.14});
      }
    } else {
      for (int i = 0; i < 40; ++i) {
        EXPECT_DOUBLE_EQ(comm.recv(0, i).payload.at(0), 3.14);
      }
    }
  });
  EXPECT_GT(inj.count(fault::Event::kCommCorrupt), 0u);
  EXPECT_EQ(inj.count(fault::Event::kCommSendFailure), 0u);
}

TEST(CommFault, InjectedPingPongIsDeterministic) {
  // Same seed, two independent worlds: identical fault counters even
  // though thread interleavings differ between runs.
  const auto run_once = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.comm_drop = 0.2;
    plan.comm_corrupt = 0.1;
    plan.seed = seed;
    fault::FaultInjector inj(plan);
    fault::FaultScope scope(inj);
    World world(2, fast_timeouts());
    world.run([](Communicator& comm) {
      for (int i = 0; i < 30; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, i, std::vector<double>{1.0});
          comm.recv(1, i);
        } else {
          comm.recv(0, i);
          comm.send(0, i, std::vector<double>{2.0});
        }
      }
    });
    return inj.counters();
  };
  const fault::FaultCounters first = run_once(77);
  const fault::FaultCounters second = run_once(77);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.total(), 0u);
}

TEST(CommFault, WorldRejectsBadOptions) {
  WorldOptions bad_timeout;
  bad_timeout.recv_timeout_seconds = 0.0;
  EXPECT_THROW(World(2, bad_timeout), std::invalid_argument);
  WorldOptions bad_attempts;
  bad_attempts.max_send_attempts = 0;
  EXPECT_THROW(World(2, bad_attempts), std::invalid_argument);
}

class DistCapsTest : public ::testing::TestWithParam<int> {};

TEST_P(DistCapsTest, MatchesReferenceAcrossRankCounts) {
  const int ranks = GetParam();
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 50), b = random_matrix(n, n, 51);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());

  World world(ranks);
  DistCapsOptions opts;
  opts.local.base_cutoff = 16;
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      dist_caps_multiply(comm, a.view(), b.view(), got.view(), opts);
    } else {
      Matrix empty;
      dist_caps_multiply(comm, empty.view(), empty.view(), empty.view(),
                         opts);
    }
  });
  EXPECT_TRUE(linalg::allclose(got.view(), expect.view(), 1e-10, 1e-10))
      << "ranks=" << ranks;
}

INSTANTIATE_TEST_SUITE_P(RankSweep, DistCapsTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 10, 14));

TEST(DistCaps, TwoTreeLevelsAcross49Ranks) {
  // 49 ranks exercise two genuine distributed BFS levels (7 sub-groups
  // of 7), with leaf solves at the 64-dimension threshold.
  const std::size_t n = 256;
  Matrix a = random_matrix(n, n, 90), b = random_matrix(n, n, 91);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  World world(49);
  DistCapsOptions opts;
  opts.local.base_cutoff = 32;
  world.run([&](Communicator& comm) {
    Matrix empty;
    const bool root = comm.rank() == 0;
    dist_caps_multiply(comm, root ? a.view() : empty.view(),
                       root ? b.view() : empty.view(),
                       root ? got.view() : empty.view(), opts);
  });
  EXPECT_TRUE(linalg::allclose(got.view(), expect.view(), 1e-10, 1e-10));
}

TEST(DistCaps, DistributionLevelCapForcesLocalSolve) {
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 95), b = random_matrix(n, n, 96);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  World world(7);
  DistCapsOptions opts;
  opts.local.base_cutoff = 16;
  opts.max_distribution_levels = 0;  // never distribute

  trace::Recorder rec;
  trace::RecordingScope scope(rec);
  world.run([&](Communicator& comm) {
    Matrix empty;
    const bool root = comm.rank() == 0;
    dist_caps_multiply(comm, root ? a.view() : empty.view(),
                       root ? b.view() : empty.view(),
                       root ? got.view() : empty.view(), opts);
  });
  EXPECT_TRUE(linalg::allclose(got.view(), expect.view(), 1e-10, 1e-10));
  // Only the shape broadcast crossed the wire.
  EXPECT_EQ(rec.total().message_bytes, 6u * 8);
}

TEST(DistCaps, SmallProblemSolvedLocally) {
  const std::size_t n = 32;
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2);
  Matrix expect(n, n), got(n, n);
  blas::gemm_reference(a.view(), b.view(), expect.view());
  World world(4);
  DistCapsOptions opts;
  opts.local.base_cutoff = 16;
  opts.distribute_threshold = 64;

  trace::Recorder rec;
  trace::RecordingScope scope(rec);
  world.run([&](Communicator& comm) {
    Matrix empty;
    if (comm.rank() == 0) {
      dist_caps_multiply(comm, a.view(), b.view(), got.view(), opts);
    } else {
      dist_caps_multiply(comm, empty.view(), empty.view(), empty.view(),
                         opts);
    }
  });
  EXPECT_TRUE(linalg::allclose(got.view(), expect.view(), 1e-11, 1e-11));
  // Only the shape broadcast crossed the wire.
  EXPECT_EQ(rec.total().message_bytes, 3u * 8);
}

TEST(DistBlockGemm, MatchesReference) {
  for (int ranks : {1, 2, 3, 5}) {
    const std::size_t m = 45, k = 30, n = 27;
    Matrix a = random_matrix(m, k, 60), b = random_matrix(k, n, 61);
    Matrix expect(m, n), got(m, n);
    blas::gemm_reference(a.view(), b.view(), expect.view());
    World world(ranks);
    world.run([&](Communicator& comm) {
      Matrix empty;
      if (comm.rank() == 0) {
        dist_block_gemm(comm, a.view(), b.view(), got.view());
      } else {
        dist_block_gemm(comm, empty.view(), empty.view(), empty.view());
      }
    });
    EXPECT_TRUE(linalg::allclose(got.view(), expect.view(), 1e-11, 1e-11))
        << "ranks=" << ranks;
  }
}

TEST(DistComparison, CapsMovesFewerBytesThanBroadcastBaseline) {
  // The Eq (8) story at system level: CAPS ships 3 quadrant-sized
  // buffers per remote sub-product; the classical baseline broadcasts
  // all of B to every rank.
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 70), b = random_matrix(n, n, 71);
  Matrix c(n, n);

  const auto run_counted = [&](auto&& fn) {
    trace::Recorder rec;
    trace::RecordingScope scope(rec);
    World world(7);
    world.run(fn);
    return rec.total().message_bytes;
  };

  DistCapsOptions opts;
  opts.local.base_cutoff = 16;
  const auto caps_bytes = run_counted([&](Communicator& comm) {
    Matrix empty;
    if (comm.rank() == 0) {
      dist_caps_multiply(comm, a.view(), b.view(), c.view(), opts);
    } else {
      dist_caps_multiply(comm, empty.view(), empty.view(), empty.view(),
                         opts);
    }
  });
  const auto classical_bytes = run_counted([&](Communicator& comm) {
    Matrix empty;
    if (comm.rank() == 0) {
      dist_block_gemm(comm, a.view(), b.view(), c.view());
    } else {
      dist_block_gemm(comm, empty.view(), empty.view(), empty.view());
    }
  });
  EXPECT_LT(caps_bytes, classical_bytes);
}

TEST(World, RankThreadsRecordIntoDistinctTraceSlots) {
  // Rank threads are parallel units: each claims trace slot rank + 1
  // (ScopedRecorderSlot), so concurrent ranks never race on the
  // sequential slot 0 and no counter update is lost.
  trace::Recorder rec;
  trace::RecordingScope scope(rec);
  const int ranks = 5;
  World world(ranks);
  world.run([](Communicator& comm) {
    trace::count_flops(static_cast<std::uint64_t>(comm.rank()) + 1);
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(rec.slot(static_cast<std::size_t>(r) + 1).flops,
              static_cast<std::uint64_t>(r) + 1);
  }
  EXPECT_EQ(rec.slot(0).flops, 0u);
  EXPECT_EQ(rec.total().flops, 15u);
}

// ---- per-edge CommStats accounting (comm_stats.hpp) ----

// One directed edge's pinned traffic: deliveries and payload bytes.
struct WireEdge {
  int src;
  int dst;
  std::uint64_t messages;
  std::uint64_t bytes;
};

enum class WireRun { kSumma, k25d, kElastic };

// One SUMMA-family run whose wire traffic and result bits are pinned.
// Operands are random_matrix(n, n, 80) and (n, n, 81); rank 0 is root.
struct WirePin {
  const char* what;
  WireRun run;
  int ranks;
  GridSpec grid;  // fixed-grid runs only
  std::size_t n;
  abft::AbftMode mode;
  RecoveryPolicy policy;  // elastic runs only
  std::uint64_t c_hash;   // FNV-1a over C's bytes
  std::vector<WireEdge> edges;  // every edge not listed carries nothing
};

std::uint64_t fnv1a(const Matrix& m) {
  const auto* p = reinterpret_cast<const unsigned char*>(m.data());
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < m.rows() * m.cols() * sizeof(double); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

CommMatrix run_wire_pin(const WirePin& p, Matrix& c) {
  Matrix a = random_matrix(p.n, p.n, 80);
  Matrix b = random_matrix(p.n, p.n, 81);
  abft::AbftConfig cfg;
  cfg.mode = p.mode;
  World world(p.ranks);
  const auto views = [&](Communicator& comm, auto&& kernel) {
    Matrix empty;
    const bool root = comm.rank() == 0;
    kernel(root ? a.view() : empty.view(), root ? b.view() : empty.view(),
           root ? c.view() : empty.view());
  };
  if (p.run == WireRun::kElastic) {
    RecoveryOptions opts;
    opts.policy = p.policy;
    PanelCacheSet cache(p.ranks);
    world.run_elastic(
        opts, [&](Communicator& comm, const RecoveryContext& ctx) {
          views(comm, [&](auto va, auto vb, auto vc) {
            summa_multiply(comm, GridSpec::largest_square(p.n, comm.size()),
                           va, vb, vc, cfg, ctx, &cache);
          });
        });
  } else {
    world.run([&](Communicator& comm) {
      views(comm, [&](auto va, auto vb, auto vc) {
        if (p.run == WireRun::k25d) {
          multiply_25d(comm, p.grid, va, vb, vc, cfg);
        } else {
          summa_multiply(comm, p.grid, va, vb, vc, cfg);
        }
      });
    });
  }
  return world.comm_stats();
}

TEST(CommStats, SummaMatrixIsByteExact) {
  constexpr auto kOff = abft::AbftMode::kOff;
  constexpr auto kCorrect = abft::AbftMode::kCorrect;
  constexpr auto kRespawn = RecoveryPolicy::kRespawn;
  constexpr auto kShrink = RecoveryPolicy::kShrink;
  const WirePin pins[] = {
      // 2x2 grid, n = 64: every block is 32x32 doubles = 8192 bytes, the
      // dimension negotiation is one 8-byte send per non-root rank. Per
      // edge that gives (scatter + per-step broadcasts + gather):
      //   0->1: nego 8 + A 8192 + B 8192 + row-bcast k=0 8192 = 24584
      //   0->2: nego 8 + A 8192 + B 8192 + col-bcast k=0 8192 = 24584
      //   0->3: nego 8 + A 8192 + B 8192                      = 16392
      //   1->0: row-bcast k=1 8192 + gather C 8192            = 16384
      //   2->0: col-bcast k=1 8192 + gather C 8192            = 16384
      //   3->0: gather C 8192; 1->3, 2->3, 3->1, 3->2: one bcast each.
      {"summa 2x2", WireRun::kSumma, 4, {2, 2, 1}, 64, kOff, kRespawn,
       0x81ea78f02b748ed8ull,
       {{0, 1, 4, 24584},
        {0, 2, 4, 24584},
        {0, 3, 3, 16392},
        {1, 0, 2, 16384},
        {1, 3, 1, 8192},
        {2, 0, 2, 16384},
        {2, 3, 1, 8192},
        {3, 0, 1, 8192},
        {3, 1, 1, 8192},
        {3, 2, 1, 8192}}},
      // 2x2x2, n = 64: layer 0 (ranks 0-3) takes the scatter and
      // replicates A and B to its twin in layer 1 (ranks 4-7); each
      // layer runs one k-step; layer 1 sends its partial C back down
      // for the reduce; layer 0 gathers. The root reaches ranks 5-7 only
      // through the 8-byte dimension broadcast.
      {"2.5D 2x2x2", WireRun::k25d, 8, {2, 2, 2}, 64, kOff, kRespawn,
       0xa71922317769fab4ull,
       {{0, 1, 4, 24584},
        {0, 2, 4, 24584},
        {0, 3, 3, 16392},
        {0, 4, 3, 16392},
        {0, 5, 1, 8},
        {0, 6, 1, 8},
        {0, 7, 1, 8},
        {1, 0, 1, 8192},
        {1, 3, 1, 8192},
        {1, 5, 2, 16384},
        {2, 0, 1, 8192},
        {2, 3, 1, 8192},
        {2, 6, 2, 16384},
        {3, 0, 1, 8192},
        {3, 7, 2, 16384},
        {4, 0, 1, 8192},
        {5, 1, 1, 8192},
        {5, 4, 1, 8192},
        {6, 2, 1, 8192},
        {6, 4, 1, 8192},
        {7, 3, 1, 8192},
        {7, 5, 1, 8192},
        {7, 6, 1, 8192}}},
      // Clean elastic generation, n = 48 on a 2x2 grid (24x24 blocks,
      // 4608 bytes + an 8-byte checksum word each, plus the 8-byte
      // verdict broadcast). Respawn adds the buddy replication ring
      // r -> (r+1) % 4 of [A | B | sums] = 9232 bytes; shrink does not.
      {"elastic 4 ranks respawn", WireRun::kElastic, 4, {}, 48, kCorrect,
       kRespawn, 0x64d46529d1b7f4bbull,
       {{0, 1, 6, 23096},
        {0, 2, 5, 13864},
        {0, 3, 4, 9248},
        {1, 0, 2, 9232},
        {1, 2, 1, 9232},
        {1, 3, 1, 4616},
        {2, 0, 2, 9232},
        {2, 3, 2, 13848},
        {3, 0, 2, 13848},
        {3, 1, 1, 4616},
        {3, 2, 1, 4616}}},
      {"elastic 4 ranks shrink", WireRun::kElastic, 4, {}, 48, kCorrect,
       kShrink, 0x64d46529d1b7f4bbull,
       {{0, 1, 5, 13864},
        {0, 2, 5, 13864},
        {0, 3, 4, 9248},
        {1, 0, 2, 9232},
        {1, 3, 1, 4616},
        {2, 0, 2, 9232},
        {2, 3, 1, 4616},
        {3, 0, 1, 4616},
        {3, 1, 1, 4616},
        {3, 2, 1, 4616}}},
      // A fifth rank is a spare: it takes the dimension broadcast, then
      // idles, so its only edge is 0->4.
      {"elastic 5 ranks respawn", WireRun::kElastic, 5, {}, 48, kCorrect,
       kRespawn, 0x64d46529d1b7f4bbull,
       {{0, 1, 6, 23096},
        {0, 2, 5, 13864},
        {0, 3, 4, 9248},
        {0, 4, 1, 8},
        {1, 0, 2, 9232},
        {1, 2, 1, 9232},
        {1, 3, 1, 4616},
        {2, 0, 2, 9232},
        {2, 3, 2, 13848},
        {3, 0, 2, 13848},
        {3, 1, 1, 4616},
        {3, 2, 1, 4616}}},
      {"elastic 5 ranks shrink", WireRun::kElastic, 5, {}, 48, kCorrect,
       kShrink, 0x64d46529d1b7f4bbull,
       {{0, 1, 5, 13864},
        {0, 2, 5, 13864},
        {0, 3, 4, 9248},
        {0, 4, 1, 8},
        {1, 0, 2, 9232},
        {1, 3, 1, 4616},
        {2, 0, 2, 9232},
        {2, 3, 1, 4616},
        {3, 0, 1, 4616},
        {3, 1, 1, 4616},
        {3, 2, 1, 4616}}},
  };
  for (const WirePin& p : pins) {
    SCOPED_TRACE(p.what);
    Matrix c(p.n, p.n);
    const CommMatrix m = run_wire_pin(p, c);
    ASSERT_EQ(m.ranks(), p.ranks);
    std::vector<std::vector<const WireEdge*>> pinned(
        static_cast<std::size_t>(p.ranks),
        std::vector<const WireEdge*>(static_cast<std::size_t>(p.ranks)));
    for (const WireEdge& e : p.edges) {
      pinned[static_cast<std::size_t>(e.src)][static_cast<std::size_t>(
          e.dst)] = &e;
    }
    for (int src = 0; src < p.ranks; ++src) {
      for (int dst = 0; dst < p.ranks; ++dst) {
        const WireEdge* e =
            pinned[static_cast<std::size_t>(src)][static_cast<std::size_t>(
                dst)];
        EXPECT_EQ(m.edge(src, dst).messages, e ? e->messages : 0u)
            << "edge " << src << "->" << dst;
        EXPECT_EQ(m.edge(src, dst).payload_bytes, e ? e->bytes : 0u)
            << "edge " << src << "->" << dst;
      }
    }
    EXPECT_EQ(fnv1a(c), p.c_hash);
    // Conservation: every posted byte was consumed by its receiver.
    EXPECT_TRUE(m.conserved());
    EXPECT_EQ(m.total_retransmits(), 0u);
    EXPECT_EQ(m.total_corruptions(), 0u);
  }
}

TEST(CommStats, DistCapsMatrixIsByteExact) {
  // P = 2, n = 128, distribute threshold 64: one BFS level, h = 64.
  // Round-robin ownership gives rank 1 three of the seven
  // sub-products; each ships A and B quadrants out (2 * 64^2 doubles)
  // and one C quadrant back (64^2 doubles), plus one 8-byte shape
  // broadcast from the root.
  const std::size_t n = 128;
  Matrix a = random_matrix(n, n, 80);
  Matrix b = random_matrix(n, n, 81);
  Matrix c(n, n);
  World world(2);
  world.run([&](Communicator& comm) {
    Matrix empty;
    const bool root = comm.rank() == 0;
    dist_caps_multiply(comm, root ? a.view() : empty.view(),
                       root ? b.view() : empty.view(),
                       root ? c.view() : empty.view());
  });

  const CommMatrix& m = world.comm_stats();
  ASSERT_EQ(m.ranks(), 2);
  EXPECT_EQ(m.edge(0, 1).payload_bytes, 8u + 3u * 2u * 64u * 64u * 8u);
  EXPECT_EQ(m.edge(1, 0).payload_bytes, 3u * 64u * 64u * 8u);
  EXPECT_TRUE(m.conserved());
  EXPECT_EQ(m.bytes_sent_by(0), m.edge(0, 1).payload_bytes);
  EXPECT_EQ(m.bytes_received_by(0), m.edge(1, 0).payload_bytes);
}

TEST(CommStats, DisabledCollectorLeavesMatrixEmpty) {
  WorldOptions opts;
  opts.comm_stats = false;
  World world(2, opts);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, std::vector<double>{1.0});
    } else {
      comm.recv(0, 0);
    }
  });
  EXPECT_TRUE(world.comm_stats().empty());
}

TEST(CommStats, DeterministicUnderFixedFaultSeed) {
  // Same seed, two independent worlds: byte-identical matrices on the
  // deterministic fields (messages, bytes, retransmits, corruptions),
  // even though wall-clock waits differ run to run.
  const auto run_once = [](std::uint64_t seed) {
    fault::FaultPlan plan;
    plan.comm_drop = 0.2;
    plan.comm_corrupt = 0.1;
    plan.seed = seed;
    fault::FaultInjector inj(plan);
    fault::FaultScope scope(inj);
    const std::size_t n = 128;
    Matrix a = random_matrix(n, n, 80);
    Matrix b = random_matrix(n, n, 81);
    Matrix c(n, n);
    World world(2, fast_timeouts());
    world.run([&](Communicator& comm) {
      Matrix empty;
      const bool root = comm.rank() == 0;
      dist_caps_multiply(comm, root ? a.view() : empty.view(),
                         root ? b.view() : empty.view(),
                         root ? c.view() : empty.view());
    });
    return world.comm_stats();
  };
  const CommMatrix first = run_once(42);
  const CommMatrix second = run_once(42);
  EXPECT_TRUE(first.deterministic_equal(second));
  EXPECT_GT(first.total_retransmits(), 0u);
}

TEST(CommStats, PoisonedWorldStillMergesCounters) {
  // Every delivery attempt lost: send() exhausts its 3 attempts and
  // poisons the world. The teardown merge runs before the rethrow, so
  // the retransmit/failure counters written up to the crash survive
  // into comm_stats() instead of being dropped with the world.
  fault::FaultPlan plan;
  plan.comm_drop = 1.0;
  fault::FaultInjector inj(plan);
  fault::FaultScope scope(inj);

  WorldOptions opts = fast_timeouts();
  opts.max_send_attempts = 3;
  World world(2, opts);
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 0, std::vector<double>{1.0});
                 } else {
                   comm.recv(0, 0);
                 }
               }),
               CommError);

  const CommMatrix& m = world.comm_stats();
  ASSERT_EQ(m.ranks(), 2);
  EXPECT_EQ(m.edge(0, 1).messages, 0u);
  EXPECT_EQ(m.edge(0, 1).payload_bytes, 0u);
  EXPECT_EQ(m.edge(0, 1).retransmits, 2u);  // attempts 1..2 re-sent
  EXPECT_EQ(m.rank(0).send_failures, 1u);
  EXPECT_FALSE(m.empty());
}

TEST(DistEnergy, EstimateBehaviour) {
  DistMachineSpec spec;
  // Compute-dominated run.
  const auto comp = estimate_distributed_run(spec, 4, 51.2e9, 1.0, 1e6, 10);
  EXPECT_NEAR(comp.seconds, 1.0, 1e-3);
  EXPECT_GT(comp.node_energy_j, 0.0);
  EXPECT_GT(comp.link_energy_j, 0.0);
  EXPECT_NEAR(comp.avg_power_w(),
              comp.total_energy_j() / comp.seconds, 1e-9);

  // Communication-dominated run: doubling bytes doubles time.
  const auto c1 = estimate_distributed_run(spec, 2, 1.0, 1.0, 1.25e9, 1);
  const auto c2 = estimate_distributed_run(spec, 2, 1.0, 1.0, 2.5e9, 1);
  EXPECT_NEAR(c2.seconds / c1.seconds, 2.0, 0.01);

  // More ranks = more node + NIC energy at fixed work.
  const auto r2 = estimate_distributed_run(spec, 2, 1e9, 0.5, 1e6, 1);
  const auto r8 = estimate_distributed_run(spec, 8, 1e9, 0.5, 1e6, 1);
  EXPECT_GT(r8.node_energy_j, r2.node_energy_j);
}

TEST(DistEnergy, Validation) {
  DistMachineSpec spec;
  EXPECT_THROW(estimate_distributed_run(spec, 0, 1.0, 1.0, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(estimate_distributed_run(spec, 1, 1.0, 0.0, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(estimate_distributed_run(spec, 1, -1.0, 1.0, 1.0, 0),
               std::invalid_argument);
  spec.link_bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(estimate_distributed_run(spec, 1, 1.0, 1.0, 1.0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace capow::dist
