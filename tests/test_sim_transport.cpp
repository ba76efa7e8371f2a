// SPDX-License-Identifier: MIT
//
// SimTransport's event heap, links and allocation budget. The EventQueue
// suite pins the heap: events fire in time order, equal times in the order
// they were scheduled, and a cancelled timer neither fires nor moves the
// clock. The Network suite pins the links: a transfer lands after
// 8·bytes/bandwidth plus the latency, queues behind its link's backlog,
// and each device's downlink and uplink are separate links. Timings are
// read off completions: a query for a share the device does not hold is
// answered with an empty kProtocol error, so its completion lands exactly
// one downlink transfer plus one latency after dispatch. The
// SimQueryMemory suite bounds the operator new calls of a warm, fault-free
// query over the transport, with and without the write-ahead journal.

#include "net/sim_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "linalg/matrix_ops.h"
#include "recovery/coordinator.h"
#include "workload/device_profiles.h"

// The allocation budget replaces global operator new/delete with counting
// versions. Sanitizer runtimes own the allocator, so skip there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCEC_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCEC_ALLOC_COUNTER 0
#else
#define SCEC_ALLOC_COUNTER 1
#endif
#else
#define SCEC_ALLOC_COUNTER 1
#endif

namespace {
std::atomic<size_t> g_allocs{0};
}  // namespace

#if SCEC_ALLOC_COUNTER
// GCC pairs the malloc-backed replacement operator new with the library
// operator delete at inlined call sites and warns; the pairing is fine
// because both replacements below are global.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace scec::net {
namespace {

EdgeDevice Device(double latency_s, double downlink_bps, double uplink_bps,
                  double compute_rate_flops = 1e9) {
  EdgeDevice device;
  device.link_latency_s = latency_s;
  device.downlink_bps = downlink_bps;
  device.uplink_bps = uplink_bps;
  device.compute_rate_flops = compute_rate_flops;
  return device;
}

// One completion's id and the transport clock when it was polled.
struct Polled {
  uint64_t id = 0;
  Completion::Kind kind = Completion::Kind::kResponse;
  NetError error = NetError::kOk;
  double at = 0.0;
};

// Polls until the simulation runs dry.
std::vector<Polled> PollAll(SimTransport& transport) {
  std::vector<Polled> polled;
  std::vector<Completion> batch;
  while (transport.PollInto(&batch, 0.0) > 0) {
    for (const Completion& c : batch) {
      polled.push_back({c.id, c.kind, c.error, transport.Now()});
    }
    batch.clear();
  }
  return polled;
}

std::vector<uint64_t> Ids(const std::vector<Polled>& polled) {
  std::vector<uint64_t> ids;
  for (const Polled& p : polled) ids.push_back(p.id);
  return ids;
}

// ---------------------------------------------------------------- heap

TEST(EventQueue, RunsInTimeOrder) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  const uint64_t at3 = transport.AddAlarm(3.0);
  const uint64_t at1 = transport.AddAlarm(1.0);
  const uint64_t at2 = transport.AddAlarm(2.0);
  const std::vector<Polled> polled = PollAll(transport);
  EXPECT_EQ(Ids(polled), (std::vector<uint64_t>{at1, at2, at3}));
  for (const Polled& p : polled) EXPECT_EQ(p.kind, Completion::Kind::kAlarm);
  EXPECT_DOUBLE_EQ(transport.Now(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  SimTransport transport({Device(10.0, 1e6, 1e6)}, {});
  std::vector<uint64_t> scheduled;
  for (int i = 0; i < 10; ++i) scheduled.push_back(transport.AddAlarm(5.0));
  EXPECT_EQ(Ids(PollAll(transport)), scheduled);

  // Across kinds too: an RPC deadline and an alarm due at the same time
  // fire in the order they were scheduled. The query's device is far away
  // (10 s latency), so only the deadline is due at 0.5 s.
  const double t0 = transport.Now();
  const uint64_t rpc = transport.SubmitQuery(0, 1, {1.0}, 0.5, 0.0);
  const uint64_t alarm = transport.AddAlarm(0.5);
  std::vector<Completion> batch;
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_EQ(batch[0].id, rpc);
  EXPECT_EQ(batch[0].error, NetError::kTimeout);
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_EQ(batch[1].id, alarm);
  EXPECT_DOUBLE_EQ(transport.Now(), t0 + 0.5);
  EXPECT_TRUE(transport.Cancel(rpc));

  const uint64_t first = transport.AddAlarm(0.5);
  const uint64_t second = transport.SubmitQuery(0, 1, {1.0}, 0.5, 0.0);
  batch.clear();
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_EQ(batch[0].id, first);
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_EQ(batch[1].id, second);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  transport.AddAlarm(2.0);
  ASSERT_EQ(PollAll(transport).size(), 1u);
  transport.AddAlarm(1.5);
  const std::vector<Polled> polled = PollAll(transport);
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_DOUBLE_EQ(polled[0].at, 3.5);
}

TEST(EventQueue, NestedSchedulingDuringRun) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  // Each alarm's completion schedules the next, until 5 in total.
  int count = 0;
  transport.AddAlarm(0.0);
  std::vector<Completion> batch;
  while (transport.PollInto(&batch, 0.0) > 0) {
    ++count;
    if (count < 5) transport.AddAlarm(1.0);
  }
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(transport.Now(), 4.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  SimTransport transport({Device(0.001, 1e6, 1e6)}, {});
  const uint64_t alarm = transport.AddAlarm(1.0);
  EXPECT_TRUE(transport.Cancel(alarm));
  EXPECT_FALSE(transport.Cancel(alarm)) << "double cancel reports failure";
  EXPECT_TRUE(PollAll(transport).empty());
  EXPECT_DOUBLE_EQ(transport.Now(), 0.0) << "a cancelled alarm moved the clock";

  // A cancelled RPC's deadline never fires and never moves the clock. The
  // query itself still travels: its error reply lands (and is dropped) one
  // round trip later, long before the 5 s deadline.
  const uint64_t rpc = transport.SubmitQuery(0, 1, {}, 5.0, 0.0);
  EXPECT_TRUE(transport.Cancel(rpc));
  EXPECT_FALSE(transport.Cancel(rpc));
  EXPECT_TRUE(PollAll(transport).empty());
  EXPECT_DOUBLE_EQ(transport.Now(), 0.002);
  EXPECT_EQ(transport.stats().timeouts, 0u);
  EXPECT_EQ(transport.stats().cancelled, 1u);

  // An answered RPC's deadline is dropped the same way.
  const uint64_t answered = transport.SubmitQuery(0, 1, {}, 5.0, 0.0);
  const std::vector<Polled> polled = PollAll(transport);
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].id, answered);
  EXPECT_EQ(polled[0].error, NetError::kProtocol);
  EXPECT_DOUBLE_EQ(transport.Now(), 0.004);
  EXPECT_EQ(transport.stats().timeouts, 0u);
}

TEST(EventQueue, PollStopsAtFirstCompletion) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  const uint64_t at1 = transport.AddAlarm(1.0);
  transport.AddAlarm(2.0);
  transport.AddAlarm(3.0);
  std::vector<Completion> batch;
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_EQ(batch[0].id, at1);
  EXPECT_DOUBLE_EQ(transport.Now(), 1.0);
  EXPECT_EQ(PollAll(transport).size(), 2u);
}

TEST(EventQueueDeathTest, PastSchedulingAborts) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  transport.AddAlarm(5.0);
  PollAll(transport);
  EXPECT_DOUBLE_EQ(transport.Now(), 5.0);
  EXPECT_DEATH(transport.AddAlarm(-1.0), "past");
}

// --------------------------------------------------------------- links

TEST(Network, DeliveryTimeIsLatencyPlusSerialisation) {
  // 10 doubles = 640 bits at 6400 bps = 0.1 s serialisation + 0.01 s.
  SimTransport transport({Device(0.01, 6400, 6400)}, {});
  ASSERT_TRUE(transport.StageShare(0, 1, Matrix<double>(10, 1)).ok());
  EXPECT_DOUBLE_EQ(transport.Now(), 0.11);
  // A query of 10 doubles lands at the same offset; the empty error reply
  // takes one more latency.
  transport.SubmitQuery(0, 2, std::vector<double>(10), 1.0, 0.0);
  const std::vector<Polled> polled = PollAll(transport);
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_DOUBLE_EQ(polled[0].at, 0.11 + 0.11 + 0.01);
}

TEST(Network, BackToBackTransfersSerialise) {
  SimTransport transport({Device(0.01, 6400, 6400)}, {});
  const std::vector<double> x(10);  // 0.1 s on the downlink
  const uint64_t first = transport.SubmitQuery(0, 1, x, 1.0, 0.0);
  const uint64_t second = transport.SubmitQuery(0, 1, x, 1.0, 0.0);
  const std::vector<Polled> polled = PollAll(transport);
  ASSERT_EQ(polled.size(), 2u);
  EXPECT_EQ(polled[0].id, first);
  EXPECT_DOUBLE_EQ(polled[0].at, 0.12);
  EXPECT_EQ(polled[1].id, second);
  EXPECT_DOUBLE_EQ(polled[1].at, 0.22) << "second message queues behind";
}

TEST(Network, IndependentLinksDoNotInterfere) {
  SimTransport transport(
      {Device(0.01, 6400, 6400), Device(0.01, 6400, 6400)}, {});
  const std::vector<double> x(10);
  transport.SubmitQuery(0, 1, x, 1.0, 0.0);
  transport.SubmitQuery(1, 1, x, 1.0, 0.0);
  const std::vector<Polled> polled = PollAll(transport);
  ASSERT_EQ(polled.size(), 2u);
  EXPECT_DOUBLE_EQ(polled[0].at, 0.12);
  EXPECT_DOUBLE_EQ(polled[1].at, 0.12);
}

TEST(Network, DirectionalLinks) {
  // A fast downlink (one double: 0.01 s) and a slow uplink (ten doubles:
  // 1 s), no latency, near-instant compute.
  SimTransport transport({Device(0.0, 6400, 640, 1e15)}, {});
  Matrix<double> share(10, 1);
  for (size_t r = 0; r < 10; ++r) share(r, 0) = static_cast<double>(r);
  ASSERT_TRUE(transport.StageShare(0, 1, share).ok());
  const double t0 = transport.Now();  // 0.1 s: 640 bits down
  transport.SubmitQuery(0, 1, {1.0}, 10.0, 0.0);
  transport.SubmitQuery(0, 1, {1.0}, 10.0, 0.0);
  std::vector<Completion> batch;
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_NEAR(transport.Now(), t0 + 0.01 + 1.0, 1e-9);
  // The second answer waits on the uplink's backlog. A share staged now
  // rides the downlink, which that backlog does not hold up.
  ASSERT_TRUE(transport.StageShare(0, 2, share).ok());
  EXPECT_NEAR(transport.Now(), t0 + 0.01 + 1.0 + 0.1, 1e-9);
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_NEAR(transport.Now(), t0 + 0.01 + 2.0, 1e-9);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].values.size(), 10u);
}

TEST(Network, BytesAccounting) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  ASSERT_TRUE(transport.StageShare(0, 1, Matrix<double>(3, 4)).ok());
  transport.SubmitQuery(0, 1, std::vector<double>(4), 1.0, 0.0);
  transport.SubmitQuery(0, 2, std::vector<double>(9), 1.0, 0.0);
  PollAll(transport);
  const NetTransportStats& stats = transport.stats();
  EXPECT_EQ(stats.staged_value_bytes, 12u * 8);
  EXPECT_EQ(stats.queries_sent, 2u);
  EXPECT_EQ(stats.query_value_bytes_sent, 13u * 8);
  EXPECT_EQ(stats.responses_delivered, 1u);
  EXPECT_EQ(stats.response_value_bytes_delivered, 3u * 8);
}

TEST(Network, ZeroLatencyZeroBytesDeliversImmediately) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  const uint64_t rpc = transport.SubmitQuery(0, 1, {}, 1.0, 0.0);
  const std::vector<Polled> polled = PollAll(transport);
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].id, rpc);
  EXPECT_DOUBLE_EQ(transport.Now(), 0.0);
}

TEST(NetworkDeathTest, MissingLinkAborts) {
  SimTransport transport({Device(0.0, 1e6, 1e6)}, {});
  EXPECT_DEATH(transport.SubmitQuery(1, 1, {1.0}, 1.0, 0.0), "");
}

TEST(NetworkDeathTest, InvalidLinkSpecAborts) {
  EXPECT_DEATH({ SimTransport t({Device(0.0, 0.0, 1e6)}, {}); }, "");
  EXPECT_DEATH({ SimTransport t({Device(0.0, 1e6, 0.0)}, {}); }, "");
  EXPECT_DEATH({ SimTransport t({Device(-1.0, 10.0, 10.0)}, {}); }, "");
}

TEST(SimTransport, StagingLeavesQueryCompletionsForNextPoll) {
  SimTransport transport({Device(0.01, 6400, 6400)}, {});
  const uint64_t rpc = transport.SubmitQuery(0, 1, {}, 5.0, 0.0);
  // 100 doubles: 1 s on the downlink, behind nothing. The query's error
  // reply lands at 0.02 s while the share is still on the wire.
  ASSERT_TRUE(transport.StageShare(0, 2, Matrix<double>(100, 1)).ok());
  EXPECT_DOUBLE_EQ(transport.Now(), 1.01);
  std::vector<Completion> batch;
  ASSERT_EQ(transport.PollInto(&batch, 0.0), 1u);
  EXPECT_EQ(batch[0].id, rpc);
  EXPECT_EQ(batch[0].error, NetError::kProtocol);
  EXPECT_DOUBLE_EQ(transport.Now(), 1.01) << "the poll ran nothing";
  EXPECT_EQ(transport.PollInto(&batch, 0.0), 0u);
}

// ----------------------------------------------------- allocation budget

// A deployment of m = l = 64 on a campus fleet, as the repository
// benchmark's durable_journal workload serves it.
struct QueryFixture {
  McscecProblem problem;
  Matrix<double> a;
  Deployment<double> deployment;
};

QueryFixture MakeQueryFixture() {
  QueryFixture f;
  Xoshiro256StarStar rng(20190707);
  f.problem.m = 64;
  f.problem.l = 64;
  f.problem.fleet = MakeCampusFleet(12, rng);
  f.a = RandomMatrix<double>(f.problem.m, f.problem.l, rng);
  ChaCha20Rng coding_rng(7);
  auto deployment = Deploy(f.problem, f.a, coding_rng);
  EXPECT_TRUE(deployment.ok());
  f.deployment = *std::move(deployment);
  return f;
}

// operator new calls per query over 32 queries, after 8 to warm up.
template <typename QueryFn>
double AllocsPerQuery(const QueryFixture& f, QueryFn&& query) {
  Xoshiro256StarStar rng(5);
  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 40; ++q) {
    xs.push_back(RandomVector<double>(f.problem.l, rng));
  }
  for (int q = 0; q < 8; ++q) EXPECT_TRUE(query(xs[q]).ok());  // warm-up
  std::vector<Result<std::vector<double>>> answers;
  answers.reserve(xs.size());
  const size_t before = g_allocs.load();
  for (int q = 8; q < 40; ++q) answers.push_back(query(xs[q]));
  const size_t allocs = g_allocs.load() - before;
  for (int q = 8; q < 40; ++q) {
    const Result<std::vector<double>>& y = answers[q - 8];
    EXPECT_TRUE(y.ok() && *y == Query(f.deployment, xs[q])) << "query " << q;
  }
  return static_cast<double>(allocs) / 32.0;
}

// Per query and device: its answer vector, handed to the driver, and the
// driver's entry for the open RPC. Plus the decoded result, returned.
double Budget(const Deployment<double>& deployment) {
  return 2.0 * static_cast<double>(deployment.shares.size()) + 1.0;
}

TEST(SimQueryMemory, JournaledQueryStaysWithinItsAllocationBudget) {
  if (!SCEC_ALLOC_COUNTER) {
    GTEST_SKIP() << "allocation counting is off under sanitizers";
  }
  const QueryFixture f = MakeQueryFixture();
  std::string snapshot;
  std::ostringstream journal;
  recovery::DurableCoordinatorOptions options;
  auto started = recovery::DurableCoordinator::Start(
      f.deployment, &f.a, f.problem.fleet.devices(), &snapshot, &journal,
      options);
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<recovery::DurableCoordinator> coordinator =
      std::move(*started);
  const double allocs = AllocsPerQuery(
      f, [&](const std::vector<double>& x) { return coordinator->Query(x); });
  // The in-memory journal stream regrows now and then: a fraction of one
  // allocation per query.
  EXPECT_LE(allocs, Budget(f.deployment) + 0.5);
}

TEST(SimQueryMemory, PlainQueryStaysWithinItsAllocationBudget) {
  if (!SCEC_ALLOC_COUNTER) {
    GTEST_SKIP() << "allocation counting is off under sanitizers";
  }
  const QueryFixture f = MakeQueryFixture();
  recovery::SimDriver sim(f.deployment, f.a, f.problem.fleet);
  const double allocs = AllocsPerQuery(
      f, [&](const std::vector<double>& x) { return sim.driver.Query(x); });
  EXPECT_LE(allocs, Budget(f.deployment));
}

}  // namespace
}  // namespace scec::net
