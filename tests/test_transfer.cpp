#include "net/transfer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vod::net {
namespace {

struct Fixture {
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;
  NoTraffic no_traffic;

  Fixture() {
    a = topo.add_node("a");
    b = topo.add_node("b");
    c = topo.add_node("c");
    ab = topo.add_link(a, b, Mbps{8.0});
    bc = topo.add_link(b, c, Mbps{8.0});
  }
};

TEST(TransferManager, SingleTransferCompletesAtExactTime) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  // 8 MB = 64 megabits over 8 Mbps -> 8 s.
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 8.0, 1e-9);
}

TEST(TransferManager, RateCapSlowsTransfer) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{4.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  EXPECT_NEAR(*done_at, 16.0, 1e-9);
}

TEST(TransferManager, LocalTransferUsesOwnCap) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  manager.start_transfer({}, MegaBytes{80.0}, Mbps{80.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  EXPECT_NEAR(*done_at, 8.0, 1e-9);
}

TEST(TransferManager, TwoTransfersShareThenSpeedUp) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // Both on ab (8 Mbps): 4 Mbps each. First moves 4 MB (32 Mb) -> done at
  // t=8.  Second (8 MB) has 4 MB left at t=8, then full 8 Mbps -> +4 s.
  std::optional<double> first_done, second_done;
  manager.start_transfer({fx.ab}, MegaBytes{4.0}, Mbps{100.0},
                         [&](SimTime t) { first_done = t.seconds(); });
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { second_done = t.seconds(); });
  sim.run();
  ASSERT_TRUE(first_done && second_done);
  EXPECT_NEAR(*first_done, 8.0, 1e-9);
  EXPECT_NEAR(*second_done, 12.0, 1e-9);
}

TEST(TransferManager, StaggeredStartAccountsEarlierProgress) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  // At t=4 the first transfer has 4 MB left; a second joins and halves the
  // rate: remaining 32 Mb at 4 Mbps -> done at t=12.
  sim.schedule_at(SimTime{4.0}, [&](SimTime) {
    manager.start_transfer({fx.ab}, MegaBytes{100.0}, Mbps{100.0},
                           [](SimTime) {});
  });
  sim.run_until(SimTime{50.0});
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 12.0, 1e-9);
}

TEST(TransferManager, BackgroundTrafficChangeReschedules) {
  Fixture fx;
  TraceTraffic trace;
  trace.add_sample(fx.ab, SimTime{0.0}, Mbps{0.0});
  trace.add_sample(fx.ab, SimTime{4.0}, Mbps{4.0});
  FluidNetwork network{fx.topo, trace};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // 8 Mbps for 4 s (4 MB moved), then 4 Mbps: remaining 4 MB takes 8 s.
  std::optional<double> done_at;
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0},
                         [&](SimTime t) { done_at = t.seconds(); });
  sim.run();
  ASSERT_TRUE(done_at.has_value());
  EXPECT_NEAR(*done_at, 12.0, 1e-9);
}

TEST(TransferManager, CancelPreventsCompletion) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  bool completed = false;
  const FlowId id = manager.start_transfer(
      {fx.ab}, MegaBytes{8.0}, Mbps{100.0},
      [&](SimTime) { completed = true; });
  sim.schedule_at(SimTime{2.0}, [&](SimTime) { manager.cancel(id); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(network.active_flow_count(), 0u);
}

TEST(TransferManager, CancelUnknownThrows) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};
  EXPECT_THROW(manager.cancel(FlowId{9}), std::out_of_range);
}

TEST(TransferManager, RemainingReportsLiveProgress) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  const FlowId id = manager.start_transfer({fx.ab}, MegaBytes{8.0},
                                           Mbps{100.0}, [](SimTime) {});
  EXPECT_NEAR(manager.remaining(id).value(), 8.0, 1e-9);
  sim.schedule_at(SimTime{4.0}, [&](SimTime) {
    EXPECT_NEAR(manager.remaining(id).value(), 4.0, 1e-6);
  });
  sim.run_until(SimTime{4.0});
  ASSERT_TRUE(manager.active(id));
}

TEST(TransferManager, CompletionCallbackMayStartNextTransfer) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // Chain two 4 MB transfers (the cluster-fetch pattern).
  std::vector<double> completions;
  manager.start_transfer({fx.ab}, MegaBytes{4.0}, Mbps{100.0},
                         [&](SimTime t1) {
                           completions.push_back(t1.seconds());
                           manager.start_transfer(
                               {fx.ab, fx.bc}, MegaBytes{4.0}, Mbps{100.0},
                               [&](SimTime t2) {
                                 completions.push_back(t2.seconds());
                               });
                         });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 4.0, 1e-9);
  EXPECT_NEAR(completions[1], 8.0, 1e-9);
}

TEST(TransferManager, RejectsBadArguments) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};
  EXPECT_THROW(manager.start_transfer({fx.ab}, MegaBytes{0.0}, Mbps{1.0},
                                      [](SimTime) {}),
               std::invalid_argument);
  EXPECT_THROW(manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{1.0},
                                      TransferManager::CompletionCallback{}),
               std::invalid_argument);
}

TEST(TransferManager, ManySequentialTransfersStayExact) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  int completed = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++completed < 10) {
      manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{8.0}, chain);
    }
  };
  manager.start_transfer({fx.ab}, MegaBytes{1.0}, Mbps{8.0}, chain);
  sim.run();
  EXPECT_EQ(completed, 10);
  // Each 1 MB at 8 Mbps takes exactly 1 s.
  EXPECT_NEAR(sim.now().seconds(), 10.0, 1e-9);
}

TEST(TransferManager, SimultaneousCompletionsShareOneReallocation) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // Four identical transfers on the same link share fairly and all finish
  // at the same instant; the completion sweep tears down all four flows in
  // one allocation epoch.
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    manager.start_transfer({fx.ab}, MegaBytes{2.0}, Mbps{100.0},
                           [&](SimTime) { ++completed; });
  }
  const std::size_t before = network.reallocation_count();
  sim.run();
  EXPECT_EQ(completed, 4);
  // The clock step onto the completion instant and the four-flow teardown
  // share one allocation epoch.  The sweep empties the network, so the
  // epoch's close skips the solve outright: no filling at all, not one for
  // the clock step plus one per stop_flow.
  EXPECT_EQ(network.reallocation_count() - before, 0u);
  EXPECT_EQ(network.active_flow_count(), 0u);
}

TEST(TransferManager, StartAfterClockAdvanceCostsOneSolve) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0}, [](SimTime) {});
  std::optional<std::size_t> solves;
  sim.schedule_at(SimTime{2.0}, [&](SimTime now) {
    // Nothing has moved the network clock since t=0, so the start steps it.
    ASSERT_LT(network.time(), now);
    const std::size_t before = network.reallocation_count();
    manager.start_transfer({fx.ab, fx.bc}, MegaBytes{8.0}, Mbps{100.0},
                           [](SimTime) {});
    solves = network.reallocation_count() - before;
  });
  sim.run();
  ASSERT_TRUE(solves.has_value());
  EXPECT_EQ(*solves, 1u);
}

TEST(TransferManager, CancelAfterClockAdvanceCostsOneSolve) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  const FlowId doomed = manager.start_transfer({fx.ab}, MegaBytes{8.0},
                                               Mbps{100.0}, [](SimTime) {});
  // A survivor keeps the network non-empty, so the stop must be solved.
  manager.start_transfer({fx.ab}, MegaBytes{8.0}, Mbps{100.0}, [](SimTime) {});
  std::optional<std::size_t> solves;
  sim.schedule_at(SimTime{2.0}, [&](SimTime now) {
    ASSERT_LT(network.time(), now);
    const std::size_t before = network.reallocation_count();
    manager.cancel(doomed);
    solves = network.reallocation_count() - before;
  });
  sim.run();
  ASSERT_TRUE(solves.has_value());
  EXPECT_EQ(*solves, 1u);
}

TEST(TransferManager, ChainedCompletionCostsOneSolve) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};

  // 4 MB alone on ab finishes at t=4; its callback starts the next fetch.
  std::optional<FlowId> next;
  std::optional<double> next_done;
  manager.start_transfer({fx.ab}, MegaBytes{4.0}, Mbps{100.0}, [&](SimTime) {
    next = manager.start_transfer({fx.ab, fx.bc}, MegaBytes{4.0}, Mbps{100.0},
                                  [&](SimTime t) { next_done = t.seconds(); });
  });
  const std::size_t before = network.reallocation_count();
  sim.run_until(SimTime{4.0});
  ASSERT_TRUE(next.has_value());
  // Clock step, stop and chained start: one solve, after which the new
  // flow holds its full share.
  EXPECT_EQ(network.reallocation_count() - before, 1u);
  EXPECT_EQ(manager.current_rate(*next), Mbps{8.0});
  sim.run();
  ASSERT_TRUE(next_done.has_value());
  EXPECT_NEAR(*next_done, 8.0, 1e-9);
}

// One lane under churn: every transfer shares path, cap and weight, so all
// of them form one fluid bundle and move at one common rate.  Progress is
// then a single level P(t), the megabytes each member has moved since t=0,
// and a member started at level s with size z finishes at level s + z.  The
// test reads P off a long-lived anchor member, cancels the lane's root
// (smallest remaining), a middle member and its tail (a fresh member larger
// than all others) while they run, starts members mid-flight, and checks
// that each completion fires at its finish level and in ascending order of
// finish level, i.e. of remaining.
TEST(TransferManager, OneLaneUnderChurnCompletesInRemainingOrder) {
  Fixture fx;
  FluidNetwork network{fx.topo, fx.no_traffic};
  sim::Simulation sim;
  TransferManager manager{sim, network};
  Rng rng{4242};

  constexpr double kAnchorMb = 1000.0;
  std::vector<double> finish;  // by tag
  std::vector<FlowId> flows;   // by tag
  std::vector<bool> done, cancelled;
  std::optional<FlowId> anchor;
  const auto level = [&] {
    return kAnchorMb - manager.remaining(*anchor).value();
  };
  double last_finish = 0.0;
  int completions = 0;

  const auto start = [&](double size_mb) {
    const std::size_t tag = flows.size();
    finish.push_back(level() + size_mb);
    done.push_back(false);
    cancelled.push_back(false);
    flows.push_back(manager.start_transfer(
        {fx.ab}, MegaBytes{size_mb}, Mbps{100.0}, [&, tag](SimTime) {
          ++completions;
          done[tag] = true;
          const double now_level = level();
          // Fired with its remaining within the done epsilon...
          EXPECT_NEAR(finish[tag], now_level, 1e-6) << "tag " << tag;
          // ...and no other member of the lane was closer to done.
          EXPECT_LE(last_finish, finish[tag] + 1e-9) << "tag " << tag;
          last_finish = finish[tag];
          for (std::size_t other = 0; other < flows.size(); ++other) {
            if (!manager.active(flows[other])) continue;
            EXPECT_GT(manager.remaining(flows[other]).value(), 0.0);
            EXPECT_LE(finish[tag], finish[other] + 1e-9);
          }
        }));
    return tag;
  };
  const auto live_by_finish = [&] {
    std::vector<std::size_t> live;
    for (std::size_t tag = 0; tag < flows.size(); ++tag) {
      if (manager.active(flows[tag])) live.push_back(tag);
    }
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      return finish[a] < finish[b];
    });
    return live;
  };
  const auto cancel = [&](std::size_t tag) {
    manager.cancel(flows[tag]);
    cancelled[tag] = true;
  };

  anchor = manager.start_transfer({fx.ab}, MegaBytes{kAnchorMb}, Mbps{100.0},
                                  [](SimTime) {});
  for (int i = 0; i < 60; ++i) start(rng.uniform(1.0, 30.0));
  ASSERT_EQ(network.bundle_count(), 1u);

  for (int round = 1; round <= 12; ++round) {
    sim.schedule_at(SimTime{10.0 * round}, [&](SimTime) {
      for (int i = 0; i < 4; ++i) start(rng.uniform(0.5, 30.0));
      std::vector<std::size_t> live = live_by_finish();
      ASSERT_GE(live.size(), 6u);  // enough left for every cancel below
      cancel(live.front());            // the lane's root
      cancel(live[live.size() / 2]);   // a middle member
      // Members deep in the heap, whose hole the lane's tail may have to
      // climb out of.
      for (int i = 0; i < 2; ++i) {
        live = live_by_finish();
        cancel(live[static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(live.size()) - 2))]);
      }
      // Larger than every member, so it stays at the lane's tail.
      cancel(start(2.0 * kAnchorMb));
    });
  }
  sim.run_until(SimTime{1e6});

  EXPECT_FALSE(manager.active(*anchor));
  EXPECT_EQ(manager.active_count(), 0u);
  int expected = 0;
  for (std::size_t tag = 0; tag < flows.size(); ++tag) {
    EXPECT_NE(done[tag], cancelled[tag]) << "tag " << tag;
    if (done[tag]) ++expected;
  }
  EXPECT_EQ(completions, expected);
  EXPECT_GT(completions, 50);
}

// A seeded start/cancel/chain/failover script over diurnal background
// traffic, which moves every link's residual at every clock step, so a
// skipped or misplaced solve would move a completion time.  Every solve is
// checked against the reference filler.  `cap` and `weight` draw each
// transfer's rate cap and share weight: continuous caps give every flow its
// own (path, cap, weight) bundle, a few discrete values pack many transfers
// into each one.
struct DiurnalScript {
  std::uint64_t seed = 0;
  int steps = 150;
  double max_gap_s = 40.0;
  std::function<Mbps(Rng&)> cap;
  std::function<std::uint32_t(Rng&)> weight;
};

struct DiurnalScriptResult {
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  int completions = 0, chains = 0, cancels = 0, failovers = 0;
  std::size_t active_after = 0;
  /// Most flows ever live beyond one per bundle (0: every bundle a singleton).
  std::size_t max_shared = 0;
};

DiurnalScriptResult run_diurnal_script(const DiurnalScript& script) {
  Topology topo;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(topo.add_node("n" + std::to_string(i)));
  }
  DiurnalTraffic traffic{2.0};
  std::vector<LinkId> links;
  for (int i = 0; i < 4; ++i) {
    const Mbps capacity{20.0 + 10.0 * i};
    links.push_back(topo.add_link(nodes[i], nodes[i + 1], capacity));
    traffic.set_shape(links.back(), {capacity, 0.2, 0.9});
  }
  FluidNetwork network{topo, traffic};
  network.set_check_against_reference(true);
  sim::Simulation sim;
  TransferManager manager{sim, network};
  Rng rng{script.seed};

  DiurnalScriptResult out;
  std::vector<FlowId> live;
  const auto mix = [&](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      out.digest =
          (out.digest ^ ((word >> (8 * byte)) & 0xffu)) * 1099511628211ull;
    }
  };
  const auto note_sharing = [&] {
    out.max_shared = std::max(
        out.max_shared, network.active_flow_count() - network.bundle_count());
  };
  std::uint64_t next_tag = 0;

  const auto random_path = [&] {
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, 3));
    const auto last = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(first), 3));
    return std::vector<LinkId>(links.begin() + first,
                               links.begin() + last + 1);
  };
  const auto pick_live = [&]() -> std::optional<FlowId> {
    std::erase_if(live, [&](FlowId id) { return !manager.active(id); });
    if (live.empty()) return std::nullopt;
    return live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
  };
  std::function<void()> start_one = [&] {
    const std::uint64_t tag = next_tag++;
    live.push_back(manager.start_transfer(
        random_path(), MegaBytes{rng.uniform(1.0, 20.0)}, script.cap(rng),
        [&, tag](SimTime t) {
          ++out.completions;
          mix(tag);
          mix(std::bit_cast<std::uint64_t>(t.seconds()));
          // Chain the next cluster fetch from inside the completion sweep.
          if (rng.bernoulli(0.4)) {
            ++out.chains;
            start_one();
          }
        },
        script.weight(rng)));
    note_sharing();
  };

  double at = 0.0;
  for (int step = 0; step < script.steps; ++step) {
    at += rng.uniform(0.5, script.max_gap_s);
    sim.schedule_at(SimTime{at}, [&](SimTime) {
      const std::int64_t op = rng.uniform_int(0, 3);
      if (op <= 1) {
        start_one();
      } else if (op == 2) {
        if (const auto victim = pick_live()) {
          ++out.cancels;
          manager.cancel(*victim);
        }
      } else if (const auto victim = pick_live()) {
        // Failover: cancel plus restart inside one outer epoch, the way
        // Session::fail_over and Session::on_stall_timeout batch them.
        ++out.failovers;
        const FluidNetwork::BatchGuard epoch = network.defer_reallocate();
        manager.cancel(*victim);
        start_one();
      }
    });
  }
  EXPECT_NO_THROW(sim.run());  // a diverging solve throws std::logic_error
  out.active_after = manager.active_count();
  return out;
}

// Continuous caps: one transfer per bundle.  The digest was captured with
// the clock step solved on its own (one filling per network mutation), and
// re-captured when DiurnalTraffic began holding each minute's load.
TEST(TransferManager, CompletionTimesOnDiurnalTrafficMatchCapturedDigest) {
  const DiurnalScriptResult r = run_diurnal_script(
      {.seed = 20000,
       .cap = [](Rng& rng) { return Mbps{rng.uniform(2.0, 40.0)}; },
       .weight = [](Rng& rng) {
         return static_cast<std::uint32_t>(rng.uniform_int(1, 4));
       }});
  EXPECT_EQ(r.active_after, 0u);
  EXPECT_GT(r.completions, 60);
  EXPECT_GT(r.chains, 20);
  EXPECT_GT(r.cancels, 10);
  EXPECT_GT(r.failovers, 10);
  EXPECT_EQ(r.digest, 0x68736239300bf8a1u)
      << std::hex << "digest 0x" << r.digest;
}

// Three caps and three weights over ten path ranges, with arrivals dense
// enough that lanes hold many transfers across starts, cancels, chains and
// same-epoch failovers.  The digest was captured with one progress update
// and one completion time per transfer, before transfers were grouped into
// per-bundle lanes, and re-captured when DiurnalTraffic began holding each
// minute's load.
TEST(TransferManager, BundleDenseCompletionTimesMatchCapturedDigest) {
  constexpr double kCaps[] = {4.0, 8.0, 16.0};
  constexpr std::uint32_t kWeights[] = {1, 2, 4};
  const DiurnalScriptResult r = run_diurnal_script(
      {.seed = 20001,
       .steps = 400,
       .max_gap_s = 4.0,
       .cap = [&](Rng& rng) {
         return Mbps{kCaps[rng.uniform_int(0, 2)]};
       },
       .weight = [&](Rng& rng) { return kWeights[rng.uniform_int(0, 2)]; }});
  EXPECT_EQ(r.active_after, 0u);
  EXPECT_GT(r.completions, 150);
  EXPECT_GT(r.chains, 50);
  EXPECT_GT(r.cancels, 40);
  EXPECT_GT(r.failovers, 40);
  EXPECT_GE(r.max_shared, 10u) << "bundles never held several transfers";
  EXPECT_EQ(r.digest, 0x59b0b9f7ffc9f9abu)
      << std::hex << "digest 0x" << r.digest;
}

}  // namespace
}  // namespace vod::net
