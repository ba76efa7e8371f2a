// SPDX-License-Identifier: MIT
//
// End-to-end MCSCEC pipeline (in-process; the discrete-event simulator in
// src/sim adds timing and message passing on top of the same phases):
//
//   1. plan          — task allocation (TA1/TA2) + coding layout
//   2. deploy        — cloud generates pads, encodes B_j·T per device
//   3. query         — user sends x; devices compute B_j·T·x
//   4. recover       — user runs the O(m) subtraction decode
//
// Templated over the scalar: GF(2^61−1) for true ITS, double for numeric
// workloads (the structured code is 0/1 so double decode is exact, but note
// real-valued pads provide only distributional masking, not finite-field
// perfect secrecy; see SECURITY notes in README).
//
// Two layers serve these phases:
//
//   * Stateless free functions (Deploy/Query/QueryBatch/…) over a passive
//     `Deployment<T>` — the historical API, kept for callers that manage
//     their own state (tests, examples, one-shot tools).
//   * Session objects — `DeploymentSession<T>` owns one tenant's encoded
//     deployment (shares, plan, optional Freivalds verifier, pad-generation
//     counter, journal attachment) for the encode-once/query-millions
//     regime Eq. (1) optimizes; `QuerySession<T>` binds a reusable
//     zero-allocation workspace to it for a stream of queries. The
//     multi-tenant serving tier (src/serve/, docs/SERVING.md) caches and
//     batches exclusively through sessions.

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/result_verify.h"
#include "coding/security_check.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/problem.h"
#include "linalg/batch_kernels.h"
#include "linalg/matrix_ops.h"

namespace scec {

namespace recovery {
class QueryJournal;  // recovery/journal.h; sessions hold only a pointer
}  // namespace recovery

// A deployed SCEC instance: everything needed to serve queries.
template <typename T>
struct Deployment {
  Plan plan;
  StructuredCode code{1, 1};
  std::vector<DeviceShare<T>> shares;  // per participating device
  size_t l = 0;
};

// Plans, encodes, and (optionally) verifies availability and ITS before
// returning (the exact structured check, near-linear in m + r). With a pool,
// the per-device encoding (embarrassingly parallel across the k devices)
// fans out; pad generation stays serial on `rng`, so the deployment is
// bit-identical to the serial one for every pool size.
template <typename T>
Result<Deployment<T>> Deploy(const McscecProblem& problem, const Matrix<T>& a,
                             ChaCha20Rng& rng,
                             TaAlgorithm algorithm = TaAlgorithm::kAuto,
                             bool verify_security = true,
                             ThreadPool* pool = nullptr);

// Preallocated scratch for the steady-state query path: after construction,
// QueryInto serves queries with zero heap allocations (enforced by an
// operator-new counting test).
template <typename T>
struct QueryWorkspace {
  std::vector<T> y;              // m + r stacked device responses
  std::vector<T> ax;             // m decoded outputs
  std::vector<size_t> offsets;   // per-device row offset into y
};

template <typename T>
QueryWorkspace<T> MakeQueryWorkspace(const Deployment<T>& deployment);

// Allocation-free query: devices' responses land in ws.y (each device's
// block written in place of the concatenation), the subtraction decode in
// ws.ax. Returns a view of ws.ax (valid until the next QueryInto on ws).
template <typename T>
std::span<const T> QueryInto(const Deployment<T>& deployment,
                             std::span<const T> x, QueryWorkspace<T>& ws);

// Executes one query against a deployment (all devices honest & timely, as
// the paper assumes). Returns A·x.
template <typename T>
std::vector<T> Query(const Deployment<T>& deployment,
                     const std::vector<T>& x);

// Per-device intermediate results, exposed for the simulator and examples
// that want to inspect the protocol.
template <typename T>
std::vector<std::vector<T>> ComputeDeviceResponses(
    const Deployment<T>& deployment, const std::vector<T>& x);

// Batched per-device intermediate results: device j's V_j × b response
// panel (B_j·T)·X, computed with the blocked panel kernel. Column c of the
// panels equals ComputeDeviceResponses on column c of x, bit for bit.
template <typename T>
std::vector<Matrix<T>> ComputeDeviceResponsePanels(
    const Deployment<T>& deployment, const Matrix<T>& x,
    ThreadPool* pool = nullptr);

// Verified query: checks every (externally produced, possibly corrupted)
// device response against its Freivalds digest before decoding
// (coding/result_verify.h; the verifier comes from
// ResultVerifier<T>::Create(deployment.shares, rng) at deploy time).
// Returns kDecodeFailure naming the offending device when a check fails.
template <typename T>
Result<std::vector<T>> QueryVerified(
    const Deployment<T>& deployment, const ResultVerifier<T>& verifier,
    const std::vector<T>& x, const std::vector<std::vector<T>>& responses);

// Batched verified query: every column of every device panel is checked
// against the device's Freivalds digest before the panel decode. Returns
// kDecodeFailure naming the offending device when a check fails.
template <typename T>
Result<Matrix<T>> QueryVerifiedBatch(
    const Deployment<T>& deployment, const ResultVerifier<T>& verifier,
    const Matrix<T>& x, const std::vector<Matrix<T>>& response_panels);

// Batch query: Y = A·X for an l×b matrix X of stacked input columns — the
// paper's "multiplication of two matrices / different input vectors"
// generalisation (§II-A). Devices compute (B_j·T)·X with the blocked panel
// kernel (optionally in parallel across devices); the user decodes each
// column with the same m-subtraction rule, m·b subtractions total. Column c
// of the result is bit-identical to Query on column c of x, for every
// scalar type and pool size.
template <typename T>
Matrix<T> QueryBatch(const Deployment<T>& deployment, const Matrix<T>& x,
                     ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// Session layer
// ---------------------------------------------------------------------------

struct SessionOptions {
  TaAlgorithm algorithm = TaAlgorithm::kAuto;
  bool verify_security = true;
  // Deploy-time fan-out (per-device encode).
  ThreadPool* pool = nullptr;
  // Freivalds digests per device held by the session's verifier. 0 (default)
  // skips verifier creation entirely, leaving the rng stream — and therefore
  // the deployment — bit-identical to the free Deploy() call.
  size_t num_digests = 0;
};

template <typename T>
class QuerySession;

// One tenant's deployed SCEC instance held open for serving: the encoded
// shares and plan, the cached per-device row offsets, an optional Freivalds
// verifier, the pad-generation counter (how many encoding rounds this
// tenant's pads have advanced: hedges, recovery re-plans, coordinator
// restarts), and an optional write-ahead journal attachment. Sessions are
// what the deployment cache stores and what the protocol driver
// (net/driver.h) and the durable coordinator are built from.
template <typename T>
class DeploymentSession {
 public:
  // Plans, encodes, and (optionally) security-checks a fresh deployment.
  // With options.num_digests == 0 this draws exactly the same rng stream as
  // the free Deploy() — bit-identical shares and pads.
  static Result<DeploymentSession> Open(const McscecProblem& problem,
                                        const Matrix<T>& a, ChaCha20Rng& rng,
                                        SessionOptions options = {});

  // Adopts an already-encoded deployment (an unsealed snapshot, a cache
  // restore, a hand-built test fixture). No rng is drawn.
  static DeploymentSession Adopt(Deployment<T> deployment);

  // Movable (the serve counters transfer by value; atomics themselves are
  // not movable). Not copyable: a session is one tenant's single identity.
  DeploymentSession(DeploymentSession&& other) noexcept
      : deployment_(std::move(other.deployment_)),
        offsets_(std::move(other.offsets_)),
        verifier_(std::move(other.verifier_)),
        pad_generation_(other.pad_generation_),
        journal_(other.journal_),
        queries_served_(
            other.queries_served_.load(std::memory_order_relaxed)),
        batches_served_(
            other.batches_served_.load(std::memory_order_relaxed)) {}
  DeploymentSession& operator=(DeploymentSession&& other) noexcept {
    deployment_ = std::move(other.deployment_);
    offsets_ = std::move(other.offsets_);
    verifier_ = std::move(other.verifier_);
    pad_generation_ = other.pad_generation_;
    journal_ = other.journal_;
    queries_served_.store(
        other.queries_served_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    batches_served_.store(
        other.batches_served_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  const Deployment<T>& deployment() const { return deployment_; }
  const Plan& plan() const { return deployment_.plan; }
  size_t m() const { return deployment_.code.m(); }
  size_t l() const { return deployment_.l; }
  size_t num_devices() const { return deployment_.shares.size(); }
  // Per-device row offsets into the stacked response vector, computed once.
  const std::vector<size_t>& offsets() const { return offsets_; }

  bool has_verifier() const { return verifier_.num_devices() > 0; }
  const ResultVerifier<T>& verifier() const { return verifier_; }
  // Creates/replaces the verifier after the fact (draws from `rng`).
  void MakeVerifier(ChaCha20Rng& rng, size_t num_digests = 1);

  // Pad generation: 0 for the as-deployed pads; every re-encode round that
  // ships fresh pads for this tenant (hedge, recovery re-plan, coordinator
  // restart) advances it. The protocol driver salts its pad seed with this
  // value so no incarnation ever replays a pad stream an earlier one
  // shipped (Def. 2; see docs/PROTOCOL.md).
  uint32_t pad_generation() const { return pad_generation_; }
  void set_pad_generation(uint32_t generation) {
    pad_generation_ = generation;
  }
  uint32_t AdvancePadGeneration() { return ++pad_generation_; }

  // Write-ahead journal attachment (src/recovery). The session only carries
  // the pointer; protocols built from the session attach it before staging.
  // The journal must outlive the session.
  void AttachJournal(recovery::QueryJournal* journal) { journal_ = journal; }
  recovery::QueryJournal* journal() const { return journal_; }

  // --- Serving -------------------------------------------------------------

  // Opens a query stream bound to this session (zero-allocation serving
  // after construction). The session must outlive the QuerySession.
  QuerySession<T> OpenQuery() const;

  // One query, allocating its own result vector. Serving is const — many
  // threads may serve off one session concurrently (counters are relaxed
  // atomics; everything else is read-only after Open/Adopt).
  std::vector<T> Serve(const std::vector<T>& x) const;

  // Coalesced panel serving: Y = A·X for b stacked query columns through
  // the blocked MatMulPanel kernels, optionally fanned out per device.
  // Column c is bit-identical to Serve() on column c for every scalar type
  // and pool size.
  Matrix<T> ServeBatch(const Matrix<T>& x, ThreadPool* pool = nullptr) const;

  // Verified serving against externally produced (possibly corrupted)
  // responses. Requires has_verifier().
  Result<std::vector<T>> ServeVerified(
      const std::vector<T>& x,
      const std::vector<std::vector<T>>& responses) const;
  Result<Matrix<T>> ServeVerifiedBatch(
      const Matrix<T>& x,
      const std::vector<Matrix<T>>& response_panels) const;

  // Queries served through this session (Serve/ServeBatch columns plus
  // every QuerySession bound to it).
  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t batches_served() const {
    return batches_served_.load(std::memory_order_relaxed);
  }

 private:
  template <typename U>
  friend class QuerySession;

  explicit DeploymentSession(Deployment<T> deployment);

  Deployment<T> deployment_;
  std::vector<size_t> offsets_;
  ResultVerifier<T> verifier_;
  uint32_t pad_generation_ = 0;
  recovery::QueryJournal* journal_ = nullptr;
  // Relaxed counters: sessions may be read by QuerySessions on other
  // threads while the owner serves batches.
  mutable std::atomic<uint64_t> queries_served_{0};
  mutable std::atomic<uint64_t> batches_served_{0};
};

// A stream of single queries against one DeploymentSession: after
// construction, Serve() answers with zero heap allocations (same contract
// as QueryInto, which it wraps). Not thread-safe; open one per stream.
template <typename T>
class QuerySession {
 public:
  explicit QuerySession(const DeploymentSession<T>* session);

  // Serves one query; the returned view is valid until the next Serve().
  std::span<const T> Serve(std::span<const T> x);

  const DeploymentSession<T>& session() const { return *session_; }
  uint64_t served() const { return served_; }

 private:
  const DeploymentSession<T>* session_;
  QueryWorkspace<T> ws_;
  uint64_t served_ = 0;
};

}  // namespace scec
