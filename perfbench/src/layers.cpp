// SPDX-License-Identifier: MIT

#include "layers.h"

#include <algorithm>
#include <iostream>

#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/encoding_matrix.h"
#include "coding/result_verify.h"
#include "coding/security_check.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/planner.h"
#include "field/field_traits.h"
#include "linalg/batch_kernels.h"
#include "linalg/matrix_ops.h"
#include "net/wire.h"
#include "obs/export.h"
#include "recovery/crc32.h"

namespace perfbench {
namespace {

using scec::Gf61;
using scec::Matrix;

// Keeps replayed results observable so the calls are not optimised away.
volatile uint32_t g_sink = 0;

std::string Shape(const scec::McscecProblem& problem, const scec::Plan& plan) {
  return "m=" + std::to_string(problem.m) + " l=" + std::to_string(problem.l) +
         " k=" + std::to_string(problem.k()) +
         " r=" + std::to_string(plan.allocation.r) +
         " devices=" + std::to_string(plan.participating.size());
}

scec::Plan PlanOrDie(const scec::McscecProblem& problem) {
  scec::Result<scec::Plan> plan = scec::PlanMcscec(problem);
  SCEC_CHECK(plan.ok()) << plan.status();
  return std::move(*plan);
}

// Each device's round-0 view over [A_1..A_m | pads], the blocks the
// coordinator's cumulative Def. 2 check ranks.
std::vector<Matrix<Gf61>> RoundZeroViews(const scec::StructuredCode& code,
                                         const scec::LcecScheme& scheme) {
  const size_t m = code.m();
  const size_t width = m + code.r();
  const Gf61 one = scec::FieldTraits<Gf61>::One();
  std::vector<Matrix<Gf61>> blocks;
  for (size_t slot = 0; slot < scheme.num_devices(); ++slot) {
    const size_t rows = scheme.row_counts[slot];
    if (rows == 0) continue;
    Matrix<Gf61> block(rows, width);
    const size_t start = scheme.BlockStart(slot);
    for (size_t row = 0; row < rows; ++row) {
      const scec::CodedRowSpec spec = code.RowSpec(start + row);
      if (spec.data_row.has_value()) block(row, *spec.data_row) = one;
      block(row, m + spec.random_row) = one;
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

size_t LargestShare(const scec::LcecScheme& scheme) {
  return *std::max_element(scheme.row_counts.begin(), scheme.row_counts.end());
}

}  // namespace

void LayerTable::Print() const {
  for (const LayerRow& row : rows_) {
    const double ops = row.seconds_per_op > 0.0 ? 1.0 / row.seconds_per_op : 0.0;
    std::cout << "{\"layer_row\":{\"function\":\""
              << scec::obs::JsonEscape(row.function) << "\",\"shape\":\""
              << scec::obs::JsonEscape(row.shape)
              << "\",\"seconds_per_op\":" << row.seconds_per_op
              << ",\"ops_per_s\":" << ops
              << ",\"elems_per_s\":" << row.elems_per_op * ops
              << ",\"bytes_per_op\":" << row.bytes_per_op << "}}\n";
  }
}

template <typename T>
void ReplaySetupLayers(const scec::McscecProblem& problem, const Matrix<T>& a,
                       uint64_t seed, MetricMap* metrics, LayerTable* table) {
  const double elem = sizeof(T);
  scec::Plan plan = PlanOrDie(problem);
  const double plan_s = MedianCallSeconds([&] { PlanOrDie(problem); });
  const std::string shape = Shape(problem, plan);
  const scec::StructuredCode code(problem.m, plan.allocation.r);
  const size_t m = problem.m;
  const size_t l = problem.l;
  const size_t r = plan.allocation.r;

  scec::ChaCha20Rng rng(seed ^ 0x9AD5ull);
  Matrix<T> pads = scec::GeneratePadRows<T>(r, l, rng);
  const double pad_s =
      MedianCallSeconds([&] { pads = scec::GeneratePadRows<T>(r, l, rng); });
  const double encode_s = MedianCallSeconds(
      [&] { scec::EncodeShares(code, plan.scheme, a, pads); }, 0.05, 3);
  const double scheme_s = MedianCallSeconds(
      [&] {
        SCEC_CHECK(scec::CheckSchemeSecure(code, plan.scheme).ok());
      },
      0.0, 3);
  const std::vector<Matrix<Gf61>> views = RoundZeroViews(code, plan.scheme);
  const double views_s = MedianCallSeconds(
      [&] { SCEC_CHECK(scec::VerifyCumulativeViews(views, m).all_secure); },
      0.0, 3);

  (*metrics)["allocation.plan_s"] = {plan_s, "s"};
  (*metrics)["allocation.devices_used"] = {
      static_cast<double>(plan.participating.size()), "count"};
  (*metrics)["allocation.coded_rows"] = {static_cast<double>(m + r), "count"};
  (*metrics)["coding.pad_gen_s"] = {pad_s, "s"};
  (*metrics)["coding.encode_s"] = {encode_s, "s"};
  (*metrics)["coding.its_check_s"] = {scheme_s + views_s, "s"};

  const double n = static_cast<double>(m + r);
  table->Add({"PlanMcscec", shape, plan_s, 0.0,
              8.0 * static_cast<double>(problem.k())});
  table->Add({"GeneratePadRows", shape, pad_s, static_cast<double>(r * l),
              elem * static_cast<double>(r * l)});
  table->Add({"EncodeShares", shape, encode_s, n * static_cast<double>(l),
              elem * (static_cast<double>(m * l + r * l) +
                      n * static_cast<double>(l))});
  // Exact-rank elimination over GF(2^61-1): n x n per device block.
  table->Add({"CheckSchemeSecure", shape, scheme_s, n * n, 8.0 * n * n});
  table->Add({"VerifyCumulativeViews", shape, views_s, n * n, 8.0 * n * n});
}

template void ReplaySetupLayers<double>(const scec::McscecProblem&,
                                        const Matrix<double>&, uint64_t,
                                        MetricMap*, LayerTable*);
template void ReplaySetupLayers<Gf61>(const scec::McscecProblem&,
                                      const Matrix<Gf61>&, uint64_t,
                                      MetricMap*, LayerTable*);

void ReplayNetQueryLayers(const scec::McscecProblem& problem,
                          const Matrix<double>& a, uint64_t seed,
                          MetricMap* metrics, LayerTable* table) {
  const scec::Plan plan = PlanOrDie(problem);
  const std::string shape = Shape(problem, plan);
  const scec::StructuredCode code(problem.m, plan.allocation.r);
  const size_t l = problem.l;
  scec::ChaCha20Rng rng(seed ^ 0x5E7ull);
  const scec::EncodedDeployment<double> encoded =
      scec::EncodeDeployment(code, plan.scheme, a, rng);
  const auto verifier =
      scec::ResultVerifier<double>::Create(encoded.shares, rng, 1);

  scec::Xoshiro256StarStar xrng(seed ^ 0xA11ull);
  std::vector<double> x(l);
  for (double& value : x) value = 2.0 * xrng.NextDouble() - 1.0;
  std::vector<std::vector<double>> responses;
  for (const auto& share : encoded.shares) {
    responses.push_back(
        scec::MatVec(share.coded_rows, std::span<const double>(x)));
  }
  const std::vector<double> y =
      scec::ConcatenateResponses(plan.scheme, responses);
  const double n = static_cast<double>(y.size());

  const double verify_s = MedianCallSeconds([&] {
    for (size_t slot = 0; slot < responses.size(); ++slot) {
      SCEC_CHECK(verifier.Check(slot, std::span<const double>(x),
                                std::span<const double>(responses[slot])));
    }
  });
  const double decode_s = MedianCallSeconds([&] {
    const auto ax =
        scec::SubtractionDecode(code, std::span<const double>(y));
    SCEC_CHECK_EQ(ax.size(), problem.m);
  });

  const size_t big = LargestShare(plan.scheme);
  const Matrix<double>* largest = nullptr;
  for (const auto& share : encoded.shares) {
    if (share.coded_rows.rows() == big) largest = &share.coded_rows;
  }
  std::vector<double> out(big);
  const double matvec_s = MedianCallSeconds([&] {
    scec::MatVecInto(*largest, std::span<const double>(x),
                     std::span<double>(out));
  });

  // One query's frames: a query frame to every participating device and a
  // response frame back from each.
  std::vector<std::string> frames;
  const auto encode_all = [&] {
    frames.clear();
    for (size_t slot = 0; slot < responses.size(); ++slot) {
      scec::net::QueryMsg query;
      query.rpc_id = slot + 1;
      query.share_id = slot + 1;
      query.x = x;
      frames.push_back(
          scec::net::EncodeFrame(scec::net::WireType::kQuery, query.Encode()));
      scec::net::ResponseMsg response;
      response.rpc_id = slot + 1;
      response.values = responses[slot];
      frames.push_back(scec::net::EncodeFrame(scec::net::WireType::kResponse,
                                              response.Encode()));
    }
  };
  const double encode_s = MedianCallSeconds(encode_all);
  double frame_bytes = 0.0;
  for (const std::string& frame : frames) frame_bytes += frame.size();
  const double decode_frames_s = MedianCallSeconds([&] {
    scec::net::FrameReader reader;
    std::vector<scec::net::Frame> decoded;
    for (const std::string& frame : frames) {
      SCEC_CHECK(reader.Feed(frame, &decoded).ok());
    }
    for (const scec::net::Frame& frame : decoded) {
      if (frame.type == scec::net::WireType::kQuery) {
        SCEC_CHECK(scec::net::QueryMsg::Decode(frame.payload).ok());
      } else {
        SCEC_CHECK(scec::net::ResponseMsg::Decode(frame.payload).ok());
      }
    }
  });
  const std::string& query_frame = frames.front();
  const double crc_s = Crc32Seconds(query_frame);

  (*metrics)["coding.verify_s_per_query"] = {verify_s, "s"};
  (*metrics)["coding.decode_s_per_query"] = {decode_s, "s"};
  (*metrics)["linalg.matvec_s"] = {matvec_s, "s"};
  (*metrics)["net.frame_encode_s"] = {encode_s, "s"};
  (*metrics)["net.frame_decode_s"] = {decode_frames_s, "s"};
  (*metrics)["net.crc32_bytes_per_s"] = {
      static_cast<double>(query_frame.size()) / crc_s, "B/s"};

  const double devices = static_cast<double>(responses.size());
  table->Add({"ResultVerifier::Check (every share)", shape, verify_s,
              n + devices * static_cast<double>(l),
              8.0 * (2.0 * n + 2.0 * devices * static_cast<double>(l))});
  table->Add({"SubtractionDecode", shape, decode_s,
              static_cast<double>(problem.m),
              8.0 * (n + static_cast<double>(problem.m))});
  table->Add({"MatVecInto<double> (largest share)",
              shape + " rows=" + std::to_string(big), matvec_s,
              static_cast<double>(big * l),
              8.0 * static_cast<double>(big * l + l + big)});
  table->Add({"QueryMsg/ResponseMsg::Encode + EncodeFrame (one query)",
              shape + " frames=" + std::to_string(frames.size()), encode_s,
              frame_bytes, frame_bytes});
  table->Add({"FrameReader::Feed + body Decode (one query)",
              shape + " frames=" + std::to_string(frames.size()),
              decode_frames_s, frame_bytes, frame_bytes});
  table->Add({"Crc32 (query frame)",
              "bytes=" + std::to_string(query_frame.size()), crc_s,
              static_cast<double>(query_frame.size()),
              static_cast<double>(query_frame.size())});
}

double Crc32Seconds(const std::string& bytes) {
  uint32_t crc = 0;
  const double seconds = MedianCallSeconds(
      [&] { crc ^= scec::recovery::Crc32(bytes.data(), bytes.size()); });
  g_sink = crc;
  return seconds;
}

void ReplayPanelLayer(const scec::McscecProblem& problem, uint64_t seed,
                      MetricMap* metrics, LayerTable* table) {
  const scec::Plan plan = PlanOrDie(problem);
  const size_t rows = LargestShare(plan.scheme);
  const size_t l = problem.l;
  constexpr size_t kCols = 32;
  scec::ChaCha20Rng rng(seed ^ 0xBA7Cull);
  Matrix<Gf61> share(rows, l);
  for (Gf61& value : share.Data()) value = scec::FieldTraits<Gf61>::Random(rng);
  Matrix<Gf61> x(l, kCols);
  for (Gf61& value : x.Data()) value = scec::FieldTraits<Gf61>::Random(rng);
  Matrix<Gf61> out(rows, kCols);
  const double panel_s =
      MedianCallSeconds([&] { scec::MatMulPanel(share, x, out, nullptr); });
  const double macs = static_cast<double>(rows * l * kCols);
  (*metrics)["linalg.panel_s"] = {panel_s, "s"};
  (*metrics)["linalg.panel_macs_per_s"] = {macs / panel_s, "1/s"};
  table->Add({"MatMulPanel<Gf61> (largest share, 1 thread)",
              Shape(problem, plan) + " rows=" + std::to_string(rows) +
                  " cols=" + std::to_string(kCols) + " tier=" +
                  scec::Gf61KernelTier().tier,
              panel_s, macs,
              8.0 * static_cast<double>(rows * l + l * kCols + rows * kCols)});
}

}  // namespace perfbench
