// SPDX-License-Identifier: MIT
//
// serve_gf61: ServeCoordinator<Gf61> with kServeTenants tenants of
// m = l = 1024 on kServeDevices devices; the cache holds every tenant,
// max_batch is 32 and the panel pool has one thread on each CPU but the
// first.
// One client thread submits every query in the standard class and keeps a
// window of tenants x max_batch queries outstanding on the wall decision
// clock: each round it tops every tenant up to max_batch queued queries and
// pumps, so batches close full, never on the close timer.
//
// Traced configuration: spans around every Submit / Pump and inside the
// DeployFn; the program's own serve_batch spans come from the obs tracer.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "check.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "field/field_traits.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/coordinator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using scec::Gf61;
using Coordinator = scec::serve::ServeCoordinator<Gf61>;

uint64_t PoolBusyNs() {
  uint64_t total = 0;
  for (const auto& series : scec::obs::MetricsRegistry::Global().Snapshot()) {
    if (series.name == "scec_pool_busy_ns" && series.counter != nullptr) {
      total += series.counter->value();
    }
  }
  return total;
}

uint64_t TenantSeed(uint64_t seed, size_t tenant) {
  return seed * 0x9E3779B97F4A7C15ull + 0x7E0A11ull * (tenant + 1);
}

}  // namespace

RunResult RunServeGf61(const RunConfig& config) {
  RunResult result;
  SpanLog* spans = config.spans;
  const scec::McscecProblem problem =
      MakeProblem(kServeM, kServeL, LoopbackFleet(kServeDevices));

  std::vector<scec::Matrix<Gf61>> a;
  std::vector<Gf61Projection> projections;
  for (size_t t = 0; t < kServeTenants; ++t) {
    a.push_back(RandomGf61Matrix(kServeM, kServeL, TenantSeed(config.seed, t)));
    projections.emplace_back(a.back(), TenantSeed(config.seed, t) ^ 0x5EEDull);
  }

  // The pool runs on all CPUs but the first, one thread each: with every
  // core in the pool, a stall on any one of them held up every panel, and
  // runs varied about twice as much.
  const PinToLastCpus pin(
      std::max<size_t>(1, scec::ThreadPool::DefaultThreads() - 1));
  result.context["cpus"] = pin.cpus();
  scec::ThreadPool pool(pin.size());
  result.context["pool_threads"] = std::to_string(pool.num_threads());

  std::vector<double> open_s;
  const Coordinator::DeployFn deploy = [&](uint64_t tenant) {
    ScopedSpan span(spans, "core.session_open", 0);
    const double t0 = NowS();
    scec::ChaCha20Rng rng(TenantSeed(config.seed, tenant) ^ 0xC0DEull);
    scec::SessionOptions options;
    options.pool = &pool;
    auto session = scec::DeploymentSession<Gf61>::Open(problem, a[tenant], rng,
                                                       options);
    SCEC_CHECK(session.ok()) << session.status();
    open_s.push_back(NowS() - t0);
    return std::move(*session);
  };

  scec::serve::ServeOptions options;
  options.batching.max_batch = kServeMaxBatch;
  options.cache.capacity = kServeTenants;
  options.pool = &pool;

  // Set-up, several times: each later one first kills (destroys) the
  // previous coordinator and its cached sessions, and is a restart.
  std::vector<double> setup_s;
  std::vector<double> restart_s;
  std::unique_ptr<scec::obs::MetricsRegistry> registry;
  std::unique_ptr<Coordinator> coordinator;
  double eq1_cost = 0.0;
  for (size_t rep = 0; rep < config.setups; ++rep) {
    const double kill_start = NowS();
    coordinator.reset();
    registry = std::make_unique<scec::obs::MetricsRegistry>();
    options.metrics = registry.get();
    coordinator =
        std::make_unique<Coordinator>(kServeTenants, deploy, options);
    const double t0 = NowS();
    eq1_cost = 0.0;
    for (size_t t = 0; t < kServeTenants; ++t) {
      auto lease = coordinator->cache().Acquire(t, [&] { return deploy(t); });
      eq1_cost += lease->plan().allocation.total_cost;
    }
    const double t1 = NowS();
    setup_s.push_back(t1 - t0);
    if (rep > 0) restart_s.push_back(t1 - kill_start);
  }

  scec::Xoshiro256StarStar xrng(config.seed ^ 0x5E4Eull);
  struct Pending {
    size_t tenant = 0;
    std::vector<Gf61> x;
    double submit_s = 0.0;
  };
  std::unordered_map<uint64_t, Pending> pending;
  std::vector<size_t> queued(kServeTenants, 0);
  TimedPhase phase(config.seconds);
  uint64_t answers = 0;
  double batch_weight = 0.0;  // sum over answers of 1 / batch size
  double queue_wait = 0.0;
  std::vector<std::vector<Gf61>> fresh;

  // One round: top every tenant up to max_batch outstanding, pump, check.
  auto round = [&](bool timed) {
    fresh.clear();
    std::vector<size_t> owner;
    for (size_t t = 0; t < kServeTenants; ++t) {
      for (size_t i = queued[t]; i < kServeMaxBatch; ++i) {
        std::vector<Gf61> x(kServeL);
        for (Gf61& value : x) value = scec::FieldTraits<Gf61>::Random(xrng);
        fresh.push_back(std::move(x));
        owner.push_back(t);
      }
    }
    const double begin = NowS();
    for (size_t i = 0; i < fresh.size(); ++i) {
      const size_t t = owner[i];
      std::vector<Gf61> copy = fresh[i];
      const double now = NowS();
      Coordinator::SubmitResult submitted = [&] {
        ScopedSpan span(spans, "serve.submit");
        return coordinator->Submit(t, scec::serve::DeadlineClass::kStandard,
                                   std::move(copy), now);
      }();
      ++result.attempted;
      if (!submitted.admitted()) {
        ++result.failed;
        continue;
      }
      ++queued[t];
      pending.emplace(submitted.ticket,
                      Pending{t, std::move(fresh[i]), now});
    }
    std::vector<Coordinator::Completion> done = [&] {
      ScopedSpan span(spans, "serve.pump");
      return coordinator->Pump(NowS());
    }();
    const double end = NowS();

    for (Coordinator::Completion& completion : done) {
      auto it = pending.find(completion.ticket);
      SCEC_CHECK(it != pending.end());
      const Pending& query = it->second;
      --queued[query.tenant];
      if (completion.shed) {
        ++result.failed;
      } else {
        ++answers;
        const bool full = answers % kFullCheckEvery == 0;
        const bool right =
            projections[query.tenant].Check(query.x, completion.result) &&
            (!full || ExactMatVec(a[query.tenant], query.x, completion.result));
        if (!right) {
          ++result.failed;
          ++result.wrong;
        } else if (timed) {
          phase.AddAnswer(end - query.submit_s);
          batch_weight += 1.0 / static_cast<double>(completion.batch_size);
          queue_wait += completion.complete_s - completion.enqueue_s;
        }
      }
      pending.erase(it);
    }
    if (timed) phase.AddTime(end - begin);
  };

  // Warm-up: every tenant's first panels, the pool's first jobs. Not timed.
  for (int i = 0; i < 2; ++i) round(false);
  const uint64_t warm_attempted = result.attempted;
  const uint64_t hits_before = coordinator->cache().hits();
  const uint64_t misses_before = coordinator->cache().misses();
  const uint64_t busy_before = PoolBusyNs();
  const size_t spans_before = spans != nullptr ? spans->spans().size() : 0;

  while (!phase.done()) round(true);

  const uint64_t busy_ns = PoolBusyNs() - busy_before;
  const double ok = static_cast<double>(phase.answers());
  result.context["latency_samples"] = std::to_string(phase.answers());
  result.context["tail_quantile"] = std::to_string(phase.tail_quantile());
  result.context["slice_queries_per_s"] = phase.SliceRates();
  result.context["setups"] = std::to_string(setup_s.size());
  result.context["window"] = std::to_string(kServeTenants * kServeMaxBatch);

  if (spans == nullptr) {
    result.metrics["setup_s"] = {Median(setup_s), "s"};
    result.metrics["restart_s"] = {
        restart_s.empty() ? Median(setup_s) : Median(restart_s), "s"};
    result.metrics["query_p50_s"] = {phase.P50(), "s"};
    result.metrics["query_p99_s"] = {phase.Tail(), "s"};
    result.metrics["queries_per_s"] = {phase.QueriesPerS(), "1/s"};
    result.metrics["query_ok_frac"] = {
        ok / static_cast<double>(result.attempted - warm_attempted), "ratio"};
    result.metrics["eq1_cost"] = {eq1_cost, "cost"};
    return result;
  }

  double submit_s = 0.0;
  double pump_s = 0.0;
  size_t submits = 0;
  size_t pumps = 0;
  for (size_t i = spans_before; i < spans->spans().size(); ++i) {
    const Span& span = spans->spans()[i];
    if (std::string_view(span.name) == "serve.submit") {
      submit_s += span.seconds();
      ++submits;
    } else if (std::string_view(span.name) == "serve.pump") {
      pump_s += span.seconds();
      ++pumps;
    }
  }
  std::vector<double> serve_batch_s;
  for (const auto& event : scec::obs::Tracer::Global().Snapshot()) {
    if (event.name == "serve_batch") serve_batch_s.push_back(event.dur_us * 1e-6);
  }
  SCEC_CHECK(!serve_batch_s.empty()) << "no serve_batch spans recorded";
  const uint64_t hits = coordinator->cache().hits() - hits_before;
  const uint64_t misses = coordinator->cache().misses() - misses_before;

  MetricMap& m = result.metrics;
  m["serve.submit_s"] = {submit_s / static_cast<double>(submits), "s"};
  m["serve.pump_s"] = {pump_s / static_cast<double>(pumps), "s"};
  m["serve.queue_wait_s"] = {queue_wait / ok, "s"};
  m["serve.batch_size_mean"] = {ok / batch_weight, "count"};
  m["serve.cache_hit_ratio"] = {
      static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio"};
  m["serve.rejected"] = {static_cast<double>(coordinator->rejected()), "count"};
  m["serve.shed"] = {static_cast<double>(coordinator->shed()), "count"};
  m["thread_pool.busy_frac"] = {
      static_cast<double>(busy_ns) * 1e-9 /
          (phase.timed_s() * static_cast<double>(pool.num_threads())),
      "ratio"};
  m["core.session_open_s"] = {Median(open_s), "s"};
  m["core.serve_batch_s"] = {Median(serve_batch_s), "s"};
  m["queries_per_s"] = {phase.QueriesPerS(), "1/s"};  // for obs.trace_overhead

  ReplayPanelLayer(problem, config.seed, &result.metrics, config.table);
  return result;
}

}  // namespace perfbench
