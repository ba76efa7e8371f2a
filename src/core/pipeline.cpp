// SPDX-License-Identifier: MIT

#include "core/pipeline.h"

#include <string>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scec {
namespace {

template <typename T>
constexpr const char* ScalarName() {
  if constexpr (std::is_same_v<T, double>) return "double";
  if constexpr (std::is_same_v<T, Gf61>) return "gf61";
  if constexpr (std::is_same_v<T, Gf256>) return "gf256";
  return "scalar";
}

// Cached per scalar type: one registry lookup per instantiation, then only
// relaxed atomics on the hot paths (QueryInto stays allocation-free after
// its first call).
template <typename T>
struct PipelineMetrics {
  obs::Counter& deploys;
  obs::Counter& queries;
  obs::Counter& query_batches;
  obs::Histogram& deploy_seconds;
  obs::Histogram& query_seconds;
  obs::Histogram& query_batch_seconds;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics metrics{
        obs::MetricsRegistry::Global().GetCounter(
            "scec_deploys_total", {{"scalar", ScalarName<T>()}}),
        obs::MetricsRegistry::Global().GetCounter(
            "scec_queries_total", {{"scalar", ScalarName<T>()}}),
        obs::MetricsRegistry::Global().GetCounter(
            "scec_query_batches_total", {{"scalar", ScalarName<T>()}}),
        obs::MetricsRegistry::Global().GetHistogram(
            "scec_deploy_seconds", {{"scalar", ScalarName<T>()}}),
        obs::MetricsRegistry::Global().GetHistogram(
            "scec_query_seconds", {{"scalar", ScalarName<T>()}}),
        obs::MetricsRegistry::Global().GetHistogram(
            "scec_query_batch_seconds", {{"scalar", ScalarName<T>()}})};
    return metrics;
  }
};

// Per-device row offsets into the concatenated response vector y = B·T·x.
template <typename T>
void FillOffsets(const Deployment<T>& deployment,
                 std::vector<size_t>& offsets) {
  offsets.resize(deployment.shares.size());
  size_t row = 0;
  for (size_t device = 0; device < deployment.shares.size(); ++device) {
    offsets[device] = row;
    row += deployment.shares[device].coded_rows.rows();
  }
  SCEC_CHECK_EQ(row, deployment.code.total_rows());
}

// The O(m) subtraction decode over one stacked response vector: data row p
// is mixed row r+p minus the pad row it reuses (p mod r).
template <typename T>
void SubtractionDecodeInto(const StructuredCode& code, std::span<const T> y,
                           std::span<T> ax) {
  const size_t m = code.m();
  const size_t r = code.r();
  SCEC_CHECK_EQ(y.size(), code.total_rows());
  SCEC_CHECK_EQ(ax.size(), m);
  for (size_t p = 0; p < m; ++p) ax[p] = y[r + p] - y[p % r];
}

// Column-wise subtraction decode of a stacked (m+r)×b response panel.
template <typename T>
void SubtractionDecodePanel(const StructuredCode& code,
                            const Matrix<T>& stacked, Matrix<T>& result) {
  const size_t m = code.m();
  const size_t r = code.r();
  const size_t batch = stacked.cols();
  SCEC_CHECK_EQ(stacked.rows(), code.total_rows());
  SCEC_CHECK_EQ(result.rows(), m);
  SCEC_CHECK_EQ(result.cols(), batch);
  for (size_t p = 0; p < m; ++p) {
    auto mixed = stacked.Row(r + p);
    auto pad = stacked.Row(p % r);
    auto out = result.Row(p);
    for (size_t col = 0; col < batch; ++col) out[col] = mixed[col] - pad[col];
  }
}

// Shared device fan-out of the panel product: each device's share times X
// lands in its contiguous row block of `stacked` — disjoint slices, so the
// loop is safe to parallelise and deterministic for every pool size.
template <typename T>
void ComputeStackedPanels(const Deployment<T>& deployment,
                          const std::vector<size_t>& offsets,
                          const Matrix<T>& x, Matrix<T>& stacked,
                          ThreadPool* pool) {
  const size_t batch = x.cols();
  const size_t num_devices = deployment.shares.size();
  std::span<T> sdata = stacked.Data();
  auto compute_device = [&](size_t device) {
    obs::SpanGuard span(
        [&] { return "query_batch/device " + std::to_string(device); },
        "pipeline");
    const Matrix<T>& share = deployment.shares[device].coded_rows;
    MatMulPanelSpan(share, x,
                    sdata.subspan(offsets[device] * batch,
                                  share.rows() * batch));
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_devices > 1) {
    pool->ParallelFor(0, num_devices, compute_device, /*grain=*/1);
  } else {
    for (size_t device = 0; device < num_devices; ++device) {
      compute_device(device);
    }
  }
}

}  // namespace

template <typename T>
Result<Deployment<T>> Deploy(const McscecProblem& problem, const Matrix<T>& a,
                             ChaCha20Rng& rng, TaAlgorithm algorithm,
                             bool verify_security, ThreadPool* pool) {
  if (a.rows() != problem.m || a.cols() != problem.l) {
    return InvalidArgument("data matrix does not match problem dimensions");
  }
  SCEC_TRACE_SPAN("deploy", "pipeline");
  const Stopwatch stopwatch;

  Deployment<T> deployment;
  {
    SCEC_TRACE_SPAN("deploy/plan", "pipeline");
    SCEC_ASSIGN_OR_RETURN(Plan plan, PlanMcscec(problem, algorithm));
    deployment.plan = std::move(plan);
  }
  deployment.code =
      StructuredCode(problem.m, deployment.plan.allocation.r);
  deployment.l = problem.l;

  if (verify_security) {
    SCEC_TRACE_SPAN("deploy/security_check", "pipeline");
    SCEC_RETURN_IF_ERROR(
        CheckSchemeSecure(deployment.code, deployment.plan.scheme));
  }

  {
    SCEC_TRACE_SPAN("deploy/encode", "pipeline");
    EncodedDeployment<T> encoded =
        EncodeDeployment(deployment.code, deployment.plan.scheme, a, rng,
                         pool);
    deployment.shares = std::move(encoded.shares);
  }
  // encoded.pads (the matrix R) is dropped here: the cloud does not need it
  // after distribution, and the user never sees it.
  const PipelineMetrics<T>& metrics = PipelineMetrics<T>::Get();
  metrics.deploys.Increment();
  metrics.deploy_seconds.Observe(stopwatch.ElapsedSeconds());
  return deployment;
}

template <typename T>
QueryWorkspace<T> MakeQueryWorkspace(const Deployment<T>& deployment) {
  QueryWorkspace<T> ws;
  ws.y.assign(deployment.code.total_rows(), FieldTraits<T>::Zero());
  ws.ax.assign(deployment.code.m(), FieldTraits<T>::Zero());
  FillOffsets(deployment, ws.offsets);
  return ws;
}

template <typename T>
std::span<const T> QueryInto(const Deployment<T>& deployment,
                             std::span<const T> x, QueryWorkspace<T>& ws) {
  SCEC_CHECK_EQ(x.size(), deployment.l);
  SCEC_CHECK_EQ(ws.y.size(), deployment.code.total_rows());
  SCEC_CHECK_EQ(ws.offsets.size(), deployment.shares.size());
  SCEC_TRACE_SPAN("query", "pipeline");
  const Stopwatch stopwatch;
  // Device responses are contiguous blocks of y in scheme order, so each
  // device's MatVec writes straight into its slice of y — no concatenation
  // pass and no allocation.
  std::span<T> y(ws.y);
  for (size_t device = 0; device < deployment.shares.size(); ++device) {
    const Matrix<T>& share = deployment.shares[device].coded_rows;
    MatVecInto(share, x, y.subspan(ws.offsets[device], share.rows()));
  }
  {
    SCEC_TRACE_SPAN("query/decode", "pipeline");
    SubtractionDecodeInto(deployment.code, std::span<const T>(ws.y),
                          std::span<T>(ws.ax));
  }
  const PipelineMetrics<T>& metrics = PipelineMetrics<T>::Get();
  metrics.queries.Increment();
  metrics.query_seconds.Observe(stopwatch.ElapsedSeconds());
  return std::span<const T>(ws.ax);
}

template <typename T>
std::vector<std::vector<T>> ComputeDeviceResponses(
    const Deployment<T>& deployment, const std::vector<T>& x) {
  SCEC_CHECK_EQ(x.size(), deployment.l);
  std::vector<std::vector<T>> responses;
  responses.reserve(deployment.shares.size());
  for (const DeviceShare<T>& share : deployment.shares) {
    std::vector<T>& response = responses.emplace_back(share.coded_rows.rows());
    MatVecInto(share.coded_rows, std::span<const T>(x),
               std::span<T>(response));
  }
  return responses;
}

template <typename T>
std::vector<Matrix<T>> ComputeDeviceResponsePanels(
    const Deployment<T>& deployment, const Matrix<T>& x, ThreadPool* pool) {
  SCEC_CHECK_EQ(x.rows(), deployment.l);
  const size_t num_devices = deployment.shares.size();
  std::vector<Matrix<T>> panels(num_devices);
  for (size_t device = 0; device < num_devices; ++device) {
    panels[device] =
        Matrix<T>(deployment.shares[device].coded_rows.rows(), x.cols());
  }
  auto compute = [&](size_t device) {
    obs::SpanGuard span(
        [&] { return "device_response/device " + std::to_string(device); },
        "pipeline");
    MatMulPanel(deployment.shares[device].coded_rows, x, panels[device]);
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_devices > 1) {
    pool->ParallelFor(0, num_devices, compute, /*grain=*/1);
  } else {
    for (size_t device = 0; device < num_devices; ++device) compute(device);
  }
  return panels;
}

template <typename T>
std::vector<T> Query(const Deployment<T>& deployment,
                     const std::vector<T>& x) {
  QueryWorkspace<T> ws = MakeQueryWorkspace(deployment);
  QueryInto(deployment, std::span<const T>(x), ws);
  return std::move(ws.ax);
}

template <typename T>
Result<std::vector<T>> QueryVerified(
    const Deployment<T>& deployment, const ResultVerifier<T>& verifier,
    const std::vector<T>& x,
    const std::vector<std::vector<T>>& responses) {
  SCEC_CHECK_EQ(x.size(), deployment.l);
  SCEC_CHECK_EQ(responses.size(), deployment.shares.size());
  SCEC_CHECK_EQ(verifier.num_devices(), deployment.shares.size());
  for (size_t device = 0; device < responses.size(); ++device) {
    if (!verifier.Check(device, std::span<const T>(x),
                        std::span<const T>(responses[device]))) {
      return DecodeFailure("device " + std::to_string(device) +
                           " failed result verification");
    }
  }
  const std::vector<T> y =
      ConcatenateResponses(deployment.plan.scheme, responses);
  return SubtractionDecode(deployment.code, std::span<const T>(y));
}

template <typename T>
Result<Matrix<T>> QueryVerifiedBatch(
    const Deployment<T>& deployment, const ResultVerifier<T>& verifier,
    const Matrix<T>& x,
    const std::vector<Matrix<T>>& response_panels) {
  SCEC_CHECK_EQ(x.rows(), deployment.l);
  SCEC_CHECK_EQ(response_panels.size(), deployment.shares.size());
  SCEC_CHECK_EQ(verifier.num_devices(), deployment.shares.size());
  const size_t m = deployment.code.m();
  const size_t r = deployment.code.r();
  const size_t batch = x.cols();

  // Freivalds check per (device, column): each column of a panel is one
  // ordinary response vector.
  std::vector<T> xcol(deployment.l);
  std::vector<T> rcol;
  for (size_t col = 0; col < batch; ++col) {
    for (size_t i = 0; i < deployment.l; ++i) xcol[i] = x(i, col);
    for (size_t device = 0; device < response_panels.size(); ++device) {
      const Matrix<T>& panel = response_panels[device];
      SCEC_CHECK_EQ(panel.cols(), batch);
      rcol.assign(panel.rows(), FieldTraits<T>::Zero());
      for (size_t i = 0; i < panel.rows(); ++i) rcol[i] = panel(i, col);
      if (!verifier.Check(device, std::span<const T>(xcol),
                          std::span<const T>(rcol))) {
        return DecodeFailure("device " + std::to_string(device) +
                             " failed result verification (batch column " +
                             std::to_string(col) + ")");
      }
    }
  }

  // Stack verified panels and run the column-wise subtraction decode.
  Matrix<T> stacked(m + r, batch);
  size_t row = 0;
  for (const Matrix<T>& panel : response_panels) {
    for (size_t i = 0; i < panel.rows(); ++i) {
      stacked.SetRow(row++, panel.Row(i));
    }
  }
  SCEC_CHECK_EQ(row, m + r);
  Matrix<T> result(m, batch);
  SubtractionDecodePanel(deployment.code, stacked, result);
  return result;
}

template <typename T>
Matrix<T> QueryBatch(const Deployment<T>& deployment, const Matrix<T>& x,
                     ThreadPool* pool) {
  SCEC_CHECK_EQ(x.rows(), deployment.l);
  SCEC_TRACE_SPAN("query_batch", "pipeline");
  const Stopwatch stopwatch;
  const size_t m = deployment.code.m();
  const size_t r = deployment.code.r();
  const size_t batch = x.cols();

  // Devices: each computes its share times X ((V_j × l)·(l × b)) with the
  // blocked panel kernel.
  std::vector<size_t> offsets;
  FillOffsets(deployment, offsets);
  Matrix<T> stacked(m + r, batch);
  ComputeStackedPanels(deployment, offsets, x, stacked, pool);

  // User: column-wise subtraction decode.
  Matrix<T> result(m, batch);
  {
    SCEC_TRACE_SPAN("query_batch/decode", "pipeline");
    SubtractionDecodePanel(deployment.code, stacked, result);
  }
  const PipelineMetrics<T>& metrics = PipelineMetrics<T>::Get();
  metrics.query_batches.Increment();
  metrics.query_batch_seconds.Observe(stopwatch.ElapsedSeconds());
  return result;
}

// ---------------------------------------------------------------------------
// Session layer
// ---------------------------------------------------------------------------

template <typename T>
DeploymentSession<T>::DeploymentSession(Deployment<T> deployment)
    : deployment_(std::move(deployment)) {
  FillOffsets(deployment_, offsets_);
}

template <typename T>
Result<DeploymentSession<T>> DeploymentSession<T>::Open(
    const McscecProblem& problem, const Matrix<T>& a, ChaCha20Rng& rng,
    SessionOptions options) {
  SCEC_ASSIGN_OR_RETURN(
      Deployment<T> deployment,
      Deploy(problem, a, rng, options.algorithm, options.verify_security,
             options.pool));
  DeploymentSession session(std::move(deployment));
  if (options.num_digests > 0) {
    session.MakeVerifier(rng, options.num_digests);
  }
  return session;
}

template <typename T>
DeploymentSession<T> DeploymentSession<T>::Adopt(Deployment<T> deployment) {
  return DeploymentSession(std::move(deployment));
}

template <typename T>
void DeploymentSession<T>::MakeVerifier(ChaCha20Rng& rng,
                                        size_t num_digests) {
  verifier_ =
      ResultVerifier<T>::Create(deployment_.shares, rng, num_digests);
}

template <typename T>
QuerySession<T> DeploymentSession<T>::OpenQuery() const {
  return QuerySession<T>(this);
}

template <typename T>
std::vector<T> DeploymentSession<T>::Serve(const std::vector<T>& x) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return Query(deployment_, x);
}

template <typename T>
Matrix<T> DeploymentSession<T>::ServeBatch(const Matrix<T>& x,
                                           ThreadPool* pool) const {
  SCEC_CHECK_EQ(x.rows(), deployment_.l);
  SCEC_TRACE_SPAN("serve_batch", "pipeline");
  const Stopwatch stopwatch;
  const size_t m = deployment_.code.m();
  const size_t r = deployment_.code.r();
  const size_t batch = x.cols();

  // Same device fan-out + column decode as QueryBatch, but against the
  // session's cached offsets — no per-call offset recomputation on the
  // serving hot path.
  Matrix<T> stacked(m + r, batch);
  ComputeStackedPanels(deployment_, offsets_, x, stacked, pool);
  Matrix<T> result(m, batch);
  {
    SCEC_TRACE_SPAN("serve_batch/decode", "pipeline");
    SubtractionDecodePanel(deployment_.code, stacked, result);
  }

  queries_served_.fetch_add(batch, std::memory_order_relaxed);
  batches_served_.fetch_add(1, std::memory_order_relaxed);
  const PipelineMetrics<T>& metrics = PipelineMetrics<T>::Get();
  metrics.query_batches.Increment();
  metrics.query_batch_seconds.Observe(stopwatch.ElapsedSeconds());
  return result;
}

template <typename T>
Result<std::vector<T>> DeploymentSession<T>::ServeVerified(
    const std::vector<T>& x,
    const std::vector<std::vector<T>>& responses) const {
  SCEC_CHECK(has_verifier()) << "ServeVerified without a session verifier";
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return QueryVerified(deployment_, verifier_, x, responses);
}

template <typename T>
Result<Matrix<T>> DeploymentSession<T>::ServeVerifiedBatch(
    const Matrix<T>& x,
    const std::vector<Matrix<T>>& response_panels) const {
  SCEC_CHECK(has_verifier()) << "ServeVerifiedBatch without a session "
                                "verifier";
  queries_served_.fetch_add(x.cols(), std::memory_order_relaxed);
  batches_served_.fetch_add(1, std::memory_order_relaxed);
  return QueryVerifiedBatch(deployment_, verifier_, x, response_panels);
}

template <typename T>
QuerySession<T>::QuerySession(const DeploymentSession<T>* session)
    : session_(session) {
  SCEC_CHECK(session != nullptr);
  ws_ = MakeQueryWorkspace(session->deployment());
}

template <typename T>
std::span<const T> QuerySession<T>::Serve(std::span<const T> x) {
  ++served_;
  session_->queries_served_.fetch_add(1, std::memory_order_relaxed);
  return QueryInto(session_->deployment(), x, ws_);
}

// Explicit instantiations for the three scalar types the library serves.
#define SCEC_INSTANTIATE_PIPELINE(T)                                         \
  template class DeploymentSession<T>;                                       \
  template class QuerySession<T>;                                            \
  template Result<Deployment<T>> Deploy<T>(const McscecProblem&,             \
                                           const Matrix<T>&, ChaCha20Rng&,   \
                                           TaAlgorithm, bool, ThreadPool*);  \
  template QueryWorkspace<T> MakeQueryWorkspace<T>(const Deployment<T>&);    \
  template std::span<const T> QueryInto<T>(                                  \
      const Deployment<T>&, std::span<const T>, QueryWorkspace<T>&);         \
  template std::vector<T> Query<T>(const Deployment<T>&,                     \
                                   const std::vector<T>&);                   \
  template std::vector<std::vector<T>> ComputeDeviceResponses<T>(            \
      const Deployment<T>&, const std::vector<T>&);                          \
  template std::vector<Matrix<T>> ComputeDeviceResponsePanels<T>(            \
      const Deployment<T>&, const Matrix<T>&, ThreadPool*);                  \
  template Result<std::vector<T>> QueryVerified<T>(                          \
      const Deployment<T>&, const ResultVerifier<T>&, const std::vector<T>&, \
      const std::vector<std::vector<T>>&);                                   \
  template Result<Matrix<T>> QueryVerifiedBatch<T>(                          \
      const Deployment<T>&, const ResultVerifier<T>&, const Matrix<T>&,      \
      const std::vector<Matrix<T>>&);                                        \
  template Matrix<T> QueryBatch<T>(const Deployment<T>&, const Matrix<T>&,   \
                                   ThreadPool*)

SCEC_INSTANTIATE_PIPELINE(double);
SCEC_INSTANTIATE_PIPELINE(Gf61);
SCEC_INSTANTIATE_PIPELINE(Gf256);

#undef SCEC_INSTANTIATE_PIPELINE

}  // namespace scec
