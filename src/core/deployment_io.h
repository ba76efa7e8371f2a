// SPDX-License-Identifier: MIT
//
// Persistence for deployments: the cloud plans and encodes ONCE, stores the
// deployment (plan + per-device coded shares), and ships shares out of band.
// The wire format is versioned and validated on load — a tampered or
// truncated file yields a Status, never UB.
//
// Format (little-endian):
//   magic "SCEC" | u32 version | u8 scalar tag (0 = double, 1 = GF(2^61−1))
//   u64 m | u64 r | u64 l
//   scheme row counts | participating fleet indices
//   allocation (rows per device, cost, algorithm) | lower bound | i*
//   per-device share matrices (row-major payload)

#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/error.h"
#include "core/pipeline.h"

namespace scec {

inline constexpr uint32_t kDeploymentFormatVersion = 1;

Status SaveDeployment(const Deployment<double>& deployment, std::ostream& os);
Status SaveDeployment(const Deployment<Gf61>& deployment, std::ostream& os);

// The loaders read `is` to its end and parse the bytes in memory.
Result<Deployment<double>> LoadDeploymentDouble(std::istream& is);
Result<Deployment<Gf61>> LoadDeploymentGf61(std::istream& is);

// In-memory forms, which the stream functions above wrap: append the
// encoded deployment to `*out`; parse one from a byte view.
void AppendDeployment(const Deployment<double>& deployment, std::string* out);
void AppendDeployment(const Deployment<Gf61>& deployment, std::string* out);
Result<Deployment<double>> ParseDeploymentDouble(std::string_view bytes);
Result<Deployment<Gf61>> ParseDeploymentGf61(std::string_view bytes);

// File-path conveniences.
Status SaveDeploymentToFile(const Deployment<double>& deployment,
                            const std::string& path);
Status SaveDeploymentToFile(const Deployment<Gf61>& deployment,
                            const std::string& path);
Result<Deployment<double>> LoadDeploymentDoubleFromFile(
    const std::string& path);
Result<Deployment<Gf61>> LoadDeploymentGf61FromFile(const std::string& path);

}  // namespace scec
