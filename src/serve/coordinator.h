// SPDX-License-Identifier: MIT
//
// ServeCoordinator: the multi-tenant query-serving tier (docs/SERVING.md).
//
// Ties the serving pieces together over the session layer:
//
//   Submit(tenant, class, x)           admission: overload ladder + brownout
//        │                             breaker + token-bucket quotas +
//        │                             deadline feasibility + bounded FIFO
//        │                             (typed rejects: serve/admission.h,
//        ▼                             scec_serve_reject_total{reason=...})
//   Pump(now)                          batch formation: deadline-class
//        │                             coalescing (serve/batch_former.h);
//        │                             ladder rungs shed queued ballast as
//        ▼                             explicit shed completions
//   DeploymentCache::Acquire(tenant)   encode-once reuse: LRU + Lease pin
//        │                             (serve/deployment_cache.h)
//        ▼
//   session.ServeBatch(X, pool)        ONE MatMulPanel fan-out per batch on
//        │                             the PR-2 thread pool; replica lane
//        ▼                             picked by reputation (placement.h)
//   Completions (per-query results, or explicit sheds — never silent drops)
//
// Overload protection (the PR-9 layer; see docs/SERVING.md#overload):
//   * AdmissionController — per-tenant + global token-bucket quotas and
//     deadline-aware shedding on the queue-wait forecast (serve/admission.h);
//   * BrownoutBreaker — closed/open/half-open breaker over service outcomes
//     and fleet health (serve/breaker.h);
//   * OverloadGovernor — the graceful-degradation ladder (serve/overload.h):
//     shed bulk → no hedging → sampled verification → reject standard.
//     One-time-pad ITS is NEVER on the ladder.
// Every admitted query ends as exactly one completion: served (result
// columns) or shed (explicit, typed). The shed-accounting chaos invariant
// (sim/overload_chaos.h) checks submitted == rejected + completed + shed.
//
// The coordinator separates the DECISION clock from the MEASUREMENT clock:
// Submit/Pump take an external `now_s` (virtual in the load bench and the
// determinism tests, wall in live use), while panel service time is measured
// on the wall clock — unless `service_model` is set, which substitutes a
// deterministic virtual service time so overload chaos episodes and the
// determinism tests are bit-identical across SCEC_THREADS.
//
// Thread model: Submit and Pump are mutex-serialized against each other;
// the parallelism lives INSIDE ServeBatch's panel fan-out, which is where
// the arithmetic is. One coordinator per serving process is the intended
// shape.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/batch_former.h"
#include "serve/breaker.h"
#include "serve/deployment_cache.h"
#include "serve/overload.h"
#include "serve/placement.h"

namespace scec::serve {

struct ServeOptions {
  BatchFormerOptions batching;
  DeploymentCacheOptions cache;
  // Overload protection (all default-off: bit-identical to the PR-7 tier).
  AdmissionOptions admission;
  BreakerOptions breaker;
  OverloadOptions overload;
  // Result spot-checks: re-serve one sampled column per batch through the
  // scalar path and require bit-identity with the panel answer. At the
  // ladder's kSampleVerify rung the check drops to 1 in
  // overload.verify_sample_every batches.
  bool spot_verify = false;
  // Virtual service model: seconds one panel of `width` columns takes. When
  // set it replaces the WALL measurement everywhere a service time feeds a
  // DECISION (close-timeout estimator, breaker outcomes) — the overload
  // chaos harness and determinism tests script fleet brownouts through it.
  // Null = measure the real panel (live mode).
  std::function<double(size_t width)> service_model;
  // Replica lanes batches are placed on (see placement.h). Lane choice is
  // recorded per completion and in scec_serve_batches_total{replica=...}.
  size_t num_replicas = 1;
  // Optional reputation scores driving lane choice and the breaker's
  // fleet-health signal; not owned, may be null.
  const sim::ReputationTracker* reputation = nullptr;
  // Pool for the panel fan-out; null uses ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  // Registry for scec_serve_* series; null uses the global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

template <typename T>
class ServeCoordinator {
 public:
  // Builds a tenant's DeploymentSession on a cache miss (encode + pads +
  // plan). Invoked at most once per miss, under the cache lock.
  using DeployFn = std::function<DeploymentSession<T>(uint64_t tenant)>;

  // Typed admission verdict: Ok + ticket, or a Status whose reason names
  // exactly why the query was refused (surfaced as
  // scec_serve_reject_total{reason=...}).
  struct SubmitResult {
    Status status;
    RejectReason reason = RejectReason::kNone;
    uint64_t ticket = 0;  // valid only when admitted
    bool admitted() const { return status.ok(); }
  };

  // One finished query, handed back from Pump() in batch order. Exactly one
  // Completion exists per admitted ticket: served (result holds y's column)
  // or shed (explicit ladder/deadline shed, result empty, reason typed).
  struct Completion {
    uint64_t ticket = 0;
    uint64_t tenant = 0;
    DeadlineClass cls = DeadlineClass::kStandard;
    BatchCloseReason reason = BatchCloseReason::kFull;
    size_t batch_size = 0;  // columns of the panel this query rode in
    size_t replica = 0;     // lane the batch was placed on
    double enqueue_s = 0.0;   // decision-clock admission time
    double complete_s = 0.0;  // decision-clock time Pump() ran
    bool shed = false;        // true: rejected AFTER admission, no result
    RejectReason shed_reason = RejectReason::kNone;
    std::vector<T> result;  // y = A x for this query's column (served only)
  };

  ServeCoordinator(size_t num_tenants, DeployFn deploy,
                   ServeOptions options = {})
      : options_(options),
        deploy_(std::move(deploy)),
        former_(num_tenants, options.batching),
        cache_(WithMetrics(options.cache, options.metrics)),
        placement_(options.reputation, options.num_replicas),
        admission_(num_tenants, options.admission),
        breaker_(options.breaker),
        governor_(options.overload),
        metrics_(options.metrics != nullptr ? *options.metrics
                                            : obs::MetricsRegistry::Global()),
        submitted_(metrics_.GetCounter("scec_serve_submitted_total")),
        rejected_(metrics_.GetCounter("scec_serve_rejected_total")),
        served_(metrics_.GetCounter("scec_serve_completed_total")),
        shed_(metrics_.GetCounter("scec_serve_shed_total")),
        queue_depth_(metrics_.GetGauge("scec_serve_queue_depth")),
        overload_level_(metrics_.GetGauge("scec_overload_level")),
        breaker_state_(metrics_.GetGauge("scec_overload_breaker_state")),
        batch_size_hist_(metrics_.GetHistogram(
            "scec_serve_batch_size", {},
            {1, 2, 4, 8, 16, 32, 64, 128, 256})),
        queue_wait_hist_(metrics_.GetHistogram("scec_serve_queue_wait_seconds")),
        service_hist_(metrics_.GetHistogram("scec_serve_panel_seconds")) {
    SCEC_CHECK(deploy_ != nullptr);
  }

  // Admits one query for `tenant` under `cls`, or rejects it with a typed
  // reason. `x` must have the tenant's l entries (checked when the batch
  // executes); a rejected submission drops x untouched.
  SubmitResult Submit(uint64_t tenant, DeadlineClass cls, std::vector<T> x,
                      double now_s) {
    std::lock_guard<std::mutex> lock(mutex_);
    UpdateProtection(now_s);

    const bool allowed = breaker_.Allow(now_s);
    SyncRush();  // Allow() may have moved open -> half-open
    if (!allowed) {
      return Reject(RejectReason::kBrownout);
    }
    // If Allow consumed the half-open canary slot, every later gate that
    // refuses THIS submission must hand the slot back — otherwise the
    // breaker waits forever for a verdict that can never arrive.
    const bool canary = breaker_.state() == BreakerState::kHalfOpen;
    if (!governor_.AdmitClass(cls)) {
      return Reject(RejectReason::kOverloadShed, canary);
    }
    const RejectReason quota = admission_.AdmitQuota(
        static_cast<size_t>(tenant), now_s, former_.depth());
    if (quota != RejectReason::kNone) {
      return Reject(quota, canary);
    }
    const double forecast = ForecastQueueWait(
        former_.depth(), options_.batching.max_batch, cls,
        options_.batching.timeout, options_.admission,
        former_.serve_latency());
    const RejectReason deadline = admission_.AdmitDeadline(
        cls, forecast, options_.batching.timeout.budgets);
    if (deadline != RejectReason::kNone) {
      return Reject(deadline, canary);
    }

    QueuedTicket ticket;
    ticket.ticket = next_ticket_;
    ticket.tenant = static_cast<size_t>(tenant);
    ticket.cls = cls;
    ticket.enqueue_s = now_s;
    if (!former_.Enqueue(ticket)) {
      return Reject(RejectReason::kQueueFull, canary);
    }
    if (canary) canary_ticket_ = ticket.ticket;
    ++next_ticket_;
    payloads_.emplace(ticket.ticket, std::move(x));
    submitted_.Increment();
    queue_depth_.Set(static_cast<double>(former_.depth()));
    return {Status::Ok(), RejectReason::kNone, ticket.ticket};
  }

  // Forms and executes every batch due at `now_s`; with `flush` drains all
  // queues regardless of deadlines. Each batch becomes one ServeBatch panel
  // call against the tenant's leased session. Ladder rungs first convert
  // queued ballast classes into explicit shed completions.
  std::vector<Completion> Pump(double now_s, bool flush = false) {
    std::lock_guard<std::mutex> lock(mutex_);
    UpdateProtection(now_s);
    std::vector<Completion> completions;
    ShedQueuedBallast(now_s, &completions);
    for (FormedBatch& batch : former_.Form(now_s, flush)) {
      ExecuteBatch(batch, now_s, &completions);
    }
    SyncRush();  // batch outcomes may have tripped or closed the breaker
    queue_depth_.Set(static_cast<double>(former_.depth()));
    return completions;
  }

  // Decision-clock instant the next queued batch must close (+infinity when
  // idle); callers pump at or before it.
  double NextCloseDeadline() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return former_.NextCloseDeadline();
  }

  size_t QueueDepth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return former_.depth();
  }

  DeploymentCache<T>& cache() { return cache_; }
  const DeploymentCache<T>& cache() const { return cache_; }
  uint64_t submitted() const { return submitted_.value(); }
  uint64_t rejected() const { return rejected_.value(); }
  uint64_t completed() const { return served_.value(); }
  uint64_t shed() const { return shed_.value(); }
  uint64_t rejected_for(RejectReason reason) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reject_counts_[static_cast<size_t>(reason)];
  }

  // Protection state, read-only (tests, benches, the overload harness).
  const OverloadGovernor& governor() const { return governor_; }
  const BrownoutBreaker& breaker() const { return breaker_; }

  // The ladder's hedging gate, in the shape the protocol driver's
  // NetCoordinatorOptions::hedging_gate expects. Safe to call from driver
  // code: takes the coordinator lock.
  std::function<bool()> HedgingGate() {
    return [this]() {
      std::lock_guard<std::mutex> lock(mutex_);
      return governor_.HedgingAllowed();
    };
  }

 private:
  // The cache inherits the coordinator's registry unless the caller gave
  // the cache its own (one scec_serve_* namespace per serving process).
  static DeploymentCacheOptions WithMetrics(DeploymentCacheOptions cache,
                                            obs::MetricsRegistry* metrics) {
    if (cache.metrics == nullptr) cache.metrics = metrics;
    return cache;
  }

  SubmitResult Reject(RejectReason reason, bool release_canary = false) {
    if (release_canary) breaker_.OnCanaryDropped();
    rejected_.Increment();
    ++reject_counts_[static_cast<size_t>(reason)];
    metrics_
        .GetCounter("scec_serve_reject_total",
                    {{"reason", RejectReasonName(reason)}})
        .Increment();
    return {RejectStatus(reason), reason, 0};
  }

  // Queue backlog relative to the global limit, forced to 1 while the
  // breaker is open — the single pressure signal driving the ladder.
  double Pressure() const {
    if (breaker_.state() == BreakerState::kOpen) return 1.0;
    const size_t limit =
        options_.admission.global_queue_limit > 0
            ? options_.admission.global_queue_limit
            : former_.num_tenants() * options_.batching.per_tenant_queue_limit;
    return static_cast<double>(former_.depth()) / static_cast<double>(limit);
  }

  // While the breaker is anything but closed, the former rushes: queued
  // batches (the half-open canary above all) close at the next pump instead
  // of waiting out close timeouts sized from a brownout-poisoned latency
  // estimator — otherwise the canary verdict that would recover the breaker
  // is itself delayed by the brownout, and recovery goes metastable.
  void SyncRush() {
    const bool rushing = breaker_.state() != BreakerState::kClosed;
    if (!rushing && former_.rush()) {
      // The breaker just closed: its canaries proved service is healthy
      // again, so the latency window full of brownout-era samples is
      // known-stale. Re-warm from post-recovery panels (cold start admits)
      // instead of letting inflated forecasts choke admission for another
      // full window — the second metastable loop this layer must break.
      former_.ResetServeLatency();
    }
    former_.set_rush(rushing);
  }

  void UpdateProtection(double now_s) {
    if (options_.reputation != nullptr && breaker_.enabled() &&
        options_.reputation->size() > 0) {
      const double usable =
          1.0 - static_cast<double>(options_.reputation->num_quarantined()) /
                    static_cast<double>(options_.reputation->size());
      breaker_.ObserveFleetHealth(now_s, usable);
    }
    const OverloadLevel before = governor_.level();
    const OverloadLevel after = governor_.Update(now_s, Pressure());
    if (after != before) {
      metrics_
          .GetCounter("scec_overload_transitions_total",
                      {{"to", OverloadLevelName(after)}})
          .Increment();
    }
    overload_level_.Set(static_cast<double>(after));
    breaker_state_.Set(static_cast<double>(breaker_.state()));
    SyncRush();  // ObserveFleetHealth may have tripped the breaker
  }

  // Converts the queued tickets of every ladder-shed class into explicit
  // shed completions (payloads released, counters bumped) so an escalation
  // never strands admitted work in a queue nothing will serve.
  void ShedQueuedBallast(double now_s, std::vector<Completion>* completions) {
    if (governor_.AdmitClass(DeadlineClass::kBulk) &&
        governor_.AdmitClass(DeadlineClass::kStandard)) {
      return;
    }
    for (const DeadlineClass cls :
         {DeadlineClass::kBulk, DeadlineClass::kStandard}) {
      if (governor_.AdmitClass(cls)) continue;
      for (const QueuedTicket& ticket : former_.ShedClass(cls)) {
        if (ticket.ticket == canary_ticket_) {
          // The queued canary itself is being shed: hand the slot back or
          // the half-open breaker starves waiting for its verdict.
          breaker_.OnCanaryDropped();
          canary_ticket_ = 0;
        }
        payloads_.erase(ticket.ticket);
        Completion done;
        done.ticket = ticket.ticket;
        done.tenant = static_cast<uint64_t>(ticket.tenant);
        done.cls = ticket.cls;
        done.reason = BatchCloseReason::kFlush;
        done.enqueue_s = ticket.enqueue_s;
        done.complete_s = now_s;
        done.shed = true;
        done.shed_reason = RejectReason::kOverloadShed;
        shed_.Increment();
        metrics_
            .GetCounter("scec_overload_shed_total",
                        {{"class", DeadlineClassName(cls)}})
            .Increment();
        completions->push_back(std::move(done));
      }
    }
  }

  void ExecuteBatch(FormedBatch& batch, double now_s,
                    std::vector<Completion>* completions) {
    const size_t width = batch.tickets.size();
    SCEC_CHECK_GT(width, 0u);
    const uint64_t tenant = static_cast<uint64_t>(batch.tenant);
    const size_t replica = placement_.Pick();

    typename DeploymentCache<T>::Lease lease =
        cache_.Acquire(tenant, [&] { return deploy_(tenant); });
    const size_t l = lease->deployment().l;

    // Assemble the panel: one column per queued query, admission order.
    Matrix<T> x(l, width);
    for (size_t c = 0; c < width; ++c) {
      auto it = payloads_.find(batch.tickets[c].ticket);
      SCEC_CHECK(it != payloads_.end());
      SCEC_CHECK_EQ(it->second.size(), l);
      for (size_t row = 0; row < l; ++row) x(row, c) = it->second[row];
      payloads_.erase(it);
    }

    Stopwatch timer;  // measurement clock: real panel service time
    const Matrix<T> y = lease.session().ServeBatch(x, options_.pool);
    const double wall_s = timer.ElapsedSeconds();
    // Decisions (close-timeout estimator, breaker) see the virtual model
    // when one is configured; the wall histogram stays honest either way.
    const double service_s =
        options_.service_model ? options_.service_model(width) : wall_s;
    former_.ObserveServeSeconds(service_s);
    service_hist_.Observe(wall_s);
    breaker_.ObserveOutcome(
        now_s,
        /*failure=*/service_s >
            options_.batching.timeout.budgets.Budget(batch.cls));
    batch_size_hist_.Observe(static_cast<double>(width));
    metrics_
        .GetCounter("scec_serve_batches_total",
                    {{"reason", BatchCloseReasonName(batch.reason)}})
        .Increment();

    if (options_.spot_verify) SpotVerify(batch, lease.session(), x, y);

    const size_t m = y.rows();
    for (size_t c = 0; c < width; ++c) {
      Completion done;
      done.ticket = batch.tickets[c].ticket;
      done.tenant = tenant;
      done.cls = batch.cls;
      done.reason = batch.reason;
      done.batch_size = width;
      done.replica = replica;
      done.enqueue_s = batch.tickets[c].enqueue_s;
      done.complete_s = now_s;
      done.result.resize(m);
      for (size_t row = 0; row < m; ++row) done.result[row] = y(row, c);
      queue_wait_hist_.Observe(now_s - done.enqueue_s);
      served_.Increment();
      completions->push_back(std::move(done));
    }
  }

  // Re-serves one deterministic column through the scalar path and requires
  // bit-identity with the panel answer. At the kSampleVerify rung the
  // governor samples 1 in verify_sample_every batches; below it every batch
  // is checked. A mismatch is silent data corruption — abort loudly.
  void SpotVerify(const FormedBatch& batch,
                  const DeploymentSession<T>& session, const Matrix<T>& x,
                  const Matrix<T>& y) {
    if (!governor_.ShouldVerifyBatch()) {
      metrics_
          .GetCounter("scec_serve_verify_total", {{"result", "sampled_out"}})
          .Increment();
      return;
    }
    const size_t width = batch.tickets.size();
    const size_t c = static_cast<size_t>(batch.tickets[0].ticket % width);
    std::vector<T> column(x.rows());
    for (size_t row = 0; row < x.rows(); ++row) column[row] = x(row, c);
    const std::vector<T> expected = session.Serve(column);
    SCEC_CHECK_EQ(expected.size(), y.rows());
    for (size_t row = 0; row < expected.size(); ++row) {
      SCEC_CHECK(expected[row] == y(row, c))
          << "serve spot-check mismatch at row " << row << " of ticket "
          << batch.tickets[c].ticket;
    }
    metrics_.GetCounter("scec_serve_verify_total", {{"result", "checked"}})
        .Increment();
  }

  ServeOptions options_;
  DeployFn deploy_;

  mutable std::mutex mutex_;  // serializes Submit/Pump decision state
  BatchFormer former_;
  DeploymentCache<T> cache_;
  ReputationPlacement placement_;
  AdmissionController admission_;
  BrownoutBreaker breaker_;
  OverloadGovernor governor_;
  std::unordered_map<uint64_t, std::vector<T>> payloads_;  // ticket -> x
  uint64_t next_ticket_ = 1;
  uint64_t canary_ticket_ = 0;  // queued half-open canary; 0 = none
  uint64_t reject_counts_[kNumRejectReasons] = {};

  obs::MetricsRegistry& metrics_;
  obs::Counter& submitted_;
  obs::Counter& rejected_;
  obs::Counter& served_;
  obs::Counter& shed_;
  obs::Gauge& queue_depth_;
  obs::Gauge& overload_level_;
  obs::Gauge& breaker_state_;
  obs::Histogram& batch_size_hist_;
  obs::Histogram& queue_wait_hist_;
  obs::Histogram& service_hist_;
};

}  // namespace scec::serve
