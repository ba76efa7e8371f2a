// SPDX-License-Identifier: MIT
//
// The layer table: each layer's public function replayed alone at a
// workload's exact shapes, reported as ops/s or elems/s plus the bytes the
// call moves (computed from the operand sizes, not measured). Each replay
// also sets the per-layer metric named after that layer.

#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "core/problem.h"
#include "field/gf_prime.h"
#include "linalg/matrix.h"

namespace perfbench {

// PlanMcscec, GeneratePadRows, EncodeShares, CheckSchemeSecure and
// VerifyCumulativeViews at (problem, a): sets allocation.plan_s,
// allocation.devices_used, allocation.coded_rows, coding.pad_gen_s,
// coding.encode_s and coding.its_check_s.
template <typename T>
void ReplaySetupLayers(const scec::McscecProblem& problem,
                       const scec::Matrix<T>& a, uint64_t seed,
                       MetricMap* metrics, LayerTable* table);

// The net_loopback query path at (problem, a): ResultVerifier::Check over
// every share (coding.verify_s_per_query), SubtractionDecode
// (coding.decode_s_per_query), MatVecInto on the largest share
// (linalg.matvec_s), EncodeFrame / FrameReader::Feed on the query and the
// largest response frame (net.frame_encode_s / net.frame_decode_s, both
// per query: one query frame out and every response frame in), and Crc32
// at the query frame size (net.crc32_bytes_per_s).
void ReplayNetQueryLayers(const scec::McscecProblem& problem,
                          const scec::Matrix<double>& a, uint64_t seed,
                          MetricMap* metrics, LayerTable* table);

// Median seconds of one Crc32 over `bytes`.
double Crc32Seconds(const std::string& bytes);

// MatMulPanel (Gf61, one thread) on the largest share of the serve_gf61
// plan times a 32-column panel: linalg.panel_s, linalg.panel_macs_per_s.
void ReplayPanelLayer(const scec::McscecProblem& problem, uint64_t seed,
                      MetricMap* metrics, LayerTable* table);

}  // namespace perfbench
