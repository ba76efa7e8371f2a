// SPDX-License-Identifier: MIT
//
// net_loopback: NetCoordinator (default options: Freivalds verify on,
// cumulative exact-rank ITS check on) over SocketTransport to kNetDevices
// in-process scecd daemons, m = l = 1024 doubles. One client, one query
// outstanding (closed loop).
//
// Traced configuration: TracedTransport wraps the SocketTransport and
// records a span around every StageShare / SubmitQuery / PollInto the
// coordinator makes, inside a "net.query" span per query. The driver's
// self time is the query span minus those child spans.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/planner.h"
#include "layers.h"
#include "net/driver.h"
#include "net/scecd.h"
#include "net/socket_transport.h"
#include "net/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using scec::net::Completion;
using scec::net::Transport;

// Encoded size of a frame carrying `values` doubles in the given body.
size_t QueryFrameBytes(size_t values) {
  scec::net::QueryMsg msg;
  msg.x.assign(values, 0.0);
  return scec::net::kFrameHeaderSize + msg.Encode().size();
}
size_t ResponseFrameBytes(size_t values) {
  scec::net::ResponseMsg msg;
  msg.values.assign(values, 0.0);
  return scec::net::kFrameHeaderSize + msg.Encode().size();
}

// Transport decorator: forwards every call, records a span around the
// calls on the query path, and keeps its own ledger of what crossed.
class TracedTransport : public Transport {
 public:
  TracedTransport(Transport* inner, SpanLog* log) : inner_(inner), log_(log) {}

  void set_query(uint64_t query) { query_ = query; }

  size_t num_devices() const override { return inner_->num_devices(); }
  double Now() const override { return inner_->Now(); }

  scec::Status StageShare(size_t device, uint64_t share_id,
                          const scec::Matrix<double>& rows) override {
    ScopedSpan span(log_, "net.stage_share");
    staged_value_bytes += 8 * rows.rows() * rows.cols();
    return inner_->StageShare(device, share_id, rows);
  }

  uint64_t SubmitQuery(size_t device, uint64_t share_id,
                       const std::vector<double>& x, double deadline_s,
                       double start_delay_s) override {
    ScopedSpan span(log_, "net.submit", query_);
    query_value_bytes += 8 * x.size();
    frame_bytes += QueryFrameBytes(x.size());
    return inner_->SubmitQuery(device, share_id, x, deadline_s, start_delay_s);
  }

  uint64_t AddAlarm(double delay_s) override {
    return inner_->AddAlarm(delay_s);
  }
  bool Cancel(uint64_t id) override { return inner_->Cancel(id); }

  size_t PollInto(std::vector<Completion>* out, double max_wait_s) override {
    ScopedSpan span(log_, "net.poll", query_);
    ++polls;
    const size_t before = out->size();
    const size_t got = inner_->PollInto(out, max_wait_s);
    for (size_t i = before; i < out->size(); ++i) {
      const Completion& completion = (*out)[i];
      if (completion.kind != Completion::Kind::kResponse) continue;
      response_value_bytes += 8 * completion.values.size();
      frame_bytes += ResponseFrameBytes(completion.values.size());
    }
    return got;
  }

  const scec::net::NetTransportStats& stats() const override {
    return inner_->stats();
  }
  scec::Status Drain(double timeout_s) override {
    return inner_->Drain(timeout_s);
  }

  // The decorator's own ledger.
  uint64_t polls = 0;
  uint64_t staged_value_bytes = 0;
  uint64_t query_value_bytes = 0;
  uint64_t response_value_bytes = 0;
  uint64_t frame_bytes = 0;  // computed encoded sizes of query+response frames

 private:
  Transport* inner_;
  SpanLog* log_;
  uint64_t query_ = 0;
};

struct Cluster {
  std::vector<std::unique_ptr<scec::net::ScecDaemon>> daemons;
  std::vector<uint16_t> ports;
  ~Cluster() {
    for (auto& daemon : daemons) daemon->Stop();
  }
};

// One coordinator incarnation: the socket transport, its optional tracing
// decorator, and the coordinator bound to them. Members are destroyed in
// reverse order, so the coordinator goes before the transport it uses.
struct Incarnation {
  std::unique_ptr<scec::net::SocketTransport> socket;
  std::unique_ptr<TracedTransport> traced;
  std::unique_ptr<scec::net::NetCoordinator> coordinator;
  Transport* transport() {
    return traced != nullptr ? static_cast<Transport*>(traced.get())
                             : socket.get();
  }
  // The kill: drain, then destroy users before what they point at.
  void Kill() {
    if (socket != nullptr) (void)socket->Drain(2.0);
    coordinator.reset();
    traced.reset();
    socket.reset();
  }
};

uint64_t FramesMoved(scec::net::SocketTransport& transport) {
  uint64_t frames = 0;
  for (size_t d = 0; d < transport.num_devices(); ++d) {
    const scec::net::RpcChannelStats stats = transport.ChannelStatsFor(d);
    frames += stats.frames_sent + stats.frames_received;
  }
  return frames;
}

}  // namespace

RunResult RunNetLoopback(const RunConfig& config) {
  RunResult result;
  SpanLog* spans = config.spans;
  const scec::McscecProblem problem =
      MakeProblem(kNetM, kNetL, LoopbackFleet(kNetDevices));
  const scec::Matrix<double> a = RandomDoubleMatrix(kNetM, kNetL, config.seed);
  const scec::Result<scec::Plan> plan = scec::PlanMcscec(problem);
  SCEC_CHECK(plan.ok()) << plan.status();

  // Unpinned, the wake-ups that cross cores between the driver, the
  // transport loop and the daemons made runs of this workload range over
  // 270-720 queries/s on a 4-core host; on one core they stayed within
  // about 10%.
  const PinToLastCpus pin(1);
  result.context["cpus"] = pin.cpus();
  Cluster cluster;
  for (size_t d = 0; d < kNetDevices; ++d) {
    auto daemon = std::make_unique<scec::net::ScecDaemon>(
        scec::net::ScecdOptions{.daemon_id = d});
    SCEC_CHECK(daemon->Start().ok()) << "daemon " << d << " failed to start";
    cluster.ports.push_back(daemon->port());
    cluster.daemons.push_back(std::move(daemon));
  }

  // Set-up, several times: each later one first kills the previous
  // coordinator (drain + destroy; the daemons stay up) and is a restart.
  std::vector<double> setup_s;
  std::vector<double> restart_s;
  std::vector<double> stage_s;
  Incarnation live;
  for (size_t rep = 0; rep < config.setups; ++rep) {
    const double kill_start = NowS();
    live.Kill();
    live.socket = std::make_unique<scec::net::SocketTransport>(
        cluster.ports, scec::net::SocketTransportOptions{});
    if (spans != nullptr) {
      live.traced = std::make_unique<TracedTransport>(live.socket.get(), spans);
    }
    live.coordinator = std::make_unique<scec::net::NetCoordinator>(
        a, problem.fleet, scec::net::NetCoordinatorOptions{});
    const size_t first_span = spans != nullptr ? spans->spans().size() : 0;
    const double t0 = NowS();
    scec::Status status;
    {
      ScopedSpan span(spans, "net.setup");
      status = live.coordinator->Setup(live.transport());
    }
    const double t1 = NowS();
    SCEC_CHECK(status.ok()) << "setup failed: " << status;
    setup_s.push_back(t1 - t0);
    if (rep > 0) restart_s.push_back(t1 - kill_start);
    if (spans != nullptr) {
      double staged = 0.0;
      for (size_t i = first_span; i < spans->spans().size(); ++i) {
        const Span& span = spans->spans()[i];
        if (std::string_view(span.name) == "net.stage_share") {
          staged += span.seconds();
        }
      }
      stage_s.push_back(staged);
    }
  }

  scec::net::NetCoordinator& coordinator = *live.coordinator;
  const uint64_t frames_before = FramesMoved(*live.socket);
  scec::Xoshiro256StarStar xrng(config.seed ^ 0x51DEull);
  std::vector<double> x(kNetL);
  uint64_t query_id = 0;
  std::vector<std::pair<uint64_t, double>> client_latency;  // traced only
  // Submit to decoded answer is the query's timed interval; making x and
  // checking the answer happen outside it.
  auto run_query = [&](TimedPhase* phase) {
    for (double& value : x) value = 2.0 * xrng.NextDouble() - 1.0;
    ++query_id;
    if (live.traced != nullptr) live.traced->set_query(query_id);
    const double t0 = NowS();
    scec::Result<std::vector<double>> answer = [&] {
      ScopedSpan span(spans, "net.query", query_id);
      return coordinator.Query(x);
    }();
    const double t1 = NowS();
    ++result.attempted;
    if (!answer.ok()) {
      ++result.failed;
      result.check_failures.push_back("query " + std::to_string(query_id) +
                                      ": " + answer.status().message());
    } else if (!CloseToMatVec(a, x, *answer)) {
      ++result.failed;
      ++result.wrong;
    } else if (phase != nullptr) {
      phase->AddAnswer(t1 - t0);
      if (spans != nullptr) client_latency.emplace_back(query_id, t1 - t0);
    }
    if (phase != nullptr) phase->AddTime(t1 - t0);
  };

  // Warm-up: connections, page faults, branch history. Not timed.
  for (int i = 0; i < 32; ++i) run_query(nullptr);
  const uint64_t warm_queries = query_id;

  TimedPhase phase(config.seconds);
  while (!phase.done()) run_query(&phase);

  // One idle-device RPC at the workload's shapes, sent straight to the
  // socket transport: slot 0 of the staged plan holds share id 1.
  std::vector<double> rtt;
  {
    const size_t device = plan->participating[0];
    std::vector<Completion> completions;
    for (int i = 0; i < 64; ++i) {
      const double t0 = NowS();
      const uint64_t id = live.socket->SubmitQuery(device, 1, x, 5.0, 0.0);
      bool done = false;
      while (!done) {
        completions.clear();
        live.socket->PollInto(&completions, 1.0);
        for (const Completion& completion : completions) {
          if (completion.id == id) done = true;
        }
      }
      rtt.push_back(NowS() - t0);
    }
  }
  const uint64_t frames_moved = FramesMoved(*live.socket) - frames_before;
  (void)live.socket->Drain(2.0);

  const scec::net::NetCoordinatorStats& ds = coordinator.stats();
  const scec::net::NetTransportStats& ts = live.socket->stats();
  const double ok = static_cast<double>(phase.answers());
  result.context["latency_samples"] = std::to_string(phase.answers());
  result.context["tail_quantile"] = std::to_string(phase.tail_quantile());
  result.context["slice_queries_per_s"] = phase.SliceRates();
  result.context["setups"] = std::to_string(setup_s.size());
  result.context["plan_devices"] = std::to_string(plan->participating.size());
  result.context["plan_r"] = std::to_string(plan->allocation.r);

  if (spans == nullptr) {
    result.metrics["setup_s"] = {Median(setup_s), "s"};
    result.metrics["restart_s"] = {
        restart_s.empty() ? Median(setup_s) : Median(restart_s), "s"};
    result.metrics["query_p50_s"] = {phase.P50(), "s"};
    result.metrics["query_p99_s"] = {phase.Tail(), "s"};
    result.metrics["queries_per_s"] = {phase.QueriesPerS(), "1/s"};
    result.metrics["query_ok_frac"] = {
        ok / static_cast<double>(result.attempted - warm_queries), "ratio"};
    result.metrics["eq1_cost"] = {plan->allocation.total_cost, "cost"};
    return result;
  }

  // Per-layer metrics from the traced configuration. Every ratio is over
  // all queries since the final set-up (warm-up included), the span over
  // which both ledgers count.
  TracedTransport& traced = *live.traced;
  const double queries = static_cast<double>(ds.queries);
  const double submit_s = spans->Total("net.submit");
  const double poll_s = spans->Total("net.poll");
  const double self_s = SelfTime(*spans, "net.query");
  MetricMap& m = result.metrics;
  m["net.stage_s"] = {Median(stage_s), "s"};
  m["net.submit_s_per_query"] = {submit_s / queries, "s"};
  m["net.poll_wait_s_per_query"] = {poll_s / queries, "s"};
  m["net.driver_self_s_per_query"] = {self_s / queries, "s"};
  m["net.polls_per_query"] = {static_cast<double>(traced.polls) / queries,
                              "count"};
  m["net.rtt_s"] = {Median(rtt), "s"};
  m["net.dispatches_per_query"] = {static_cast<double>(ds.dispatches) / queries,
                                   "count"};
  m["net.frames_per_query"] = {static_cast<double>(frames_moved) /
                                   (queries + static_cast<double>(rtt.size())),
                               "count"};
  m["net.wire_bytes_per_query"] = {
      static_cast<double>(traced.frame_bytes) / queries, "B"};
  m["net.useful_response_ratio"] = {
      static_cast<double>(ds.responses_used) /
          static_cast<double>(ds.dispatches),
      "ratio"};
  m["net.retries"] = {static_cast<double>(ds.retries), "count"};
  m["net.timeouts"] = {static_cast<double>(ds.timeouts), "count"};
  m["net.stale_responses"] = {static_cast<double>(ts.stale_responses), "count"};
  m["net.reconnects"] = {static_cast<double>(ts.reconnects), "count"};
  m["queries_per_s"] = {phase.QueriesPerS(), "1/s"};  // for obs.trace_overhead

  // Reconciliation. (1) Per query, submit + poll-wait + driver-self adds
  // up to the latency the client's own stopwatch measured, within
  // 2% + 50 us. Self time is the query span minus its child spans, so this
  // holds only if the child spans never overlap (self >= 0) and the query
  // span agrees with the client's measurement.
  {
    std::map<uint64_t, double> children;  // query id -> submit + poll
    std::map<uint64_t, double> query_span;
    for (const Span& span : spans->spans()) {
      if (std::string_view(span.name) == "net.query") {
        query_span[span.query] = span.seconds();
      } else if (span.query != 0) {
        children[span.query] += span.seconds();
      }
    }
    size_t bad = 0;
    for (const auto& [query, client] : client_latency) {
      const double self = query_span[query] - children[query];
      const double sum = children[query] + self;
      if (self < 0.0 || std::fabs(sum - client) > 0.02 * client + 50e-6) ++bad;
    }
    if (bad > 0) {
      result.check_failures.push_back(
          "net: " + std::to_string(bad) +
          " queries where submit + poll + self != client latency");
    }
  }
  // (2) The driver's value-byte ledger equals the transport's exactly,
  // once the idle-device RPCs sent past the driver are taken out.
  {
    const uint64_t rtt_query_bytes = 8 * kNetL * rtt.size();
    const uint64_t rtt_response_bytes =
        8 * plan->scheme.row_counts[0] * rtt.size();
    const bool all_used = ds.responses_seen == ds.responses_used;
    const bool balanced =
        ds.query_value_bytes == static_cast<double>(traced.query_value_bytes) &&
        traced.query_value_bytes + rtt_query_bytes ==
            ts.query_value_bytes_sent &&
        traced.response_value_bytes + rtt_response_bytes ==
            ts.response_value_bytes_delivered &&
        (!all_used || ds.response_value_bytes ==
                          static_cast<double>(traced.response_value_bytes)) &&
        ds.staged_value_bytes == static_cast<double>(traced.staged_value_bytes);
    if (!balanced) {
      result.check_failures.push_back(
          "net: driver value-byte ledger != NetTransportStats");
    }
  }

  ReplayNetQueryLayers(problem, a, config.seed, &result.metrics, config.table);
  return result;
}

}  // namespace perfbench
