// SPDX-License-Identifier: MIT

#include "core/deployment_io.h"

#include <cstring>
#include <fstream>
#include <string_view>

#include "common/serde.h"

namespace scec {
namespace {

constexpr char kMagic[4] = {'S', 'C', 'E', 'C'};
constexpr uint8_t kTagDouble = 0;
constexpr uint8_t kTagGf61 = 1;
// Upper bound on matrix cells accepted from an untrusted file (512M values).
constexpr uint64_t kMaxCells = uint64_t{1} << 29;

template <typename T>
uint8_t ScalarTag();
template <>
uint8_t ScalarTag<double>() { return kTagDouble; }
template <>
uint8_t ScalarTag<Gf61>() { return kTagGf61; }

void WriteCells(BinaryWriter& writer, std::span<const double> cells) {
  writer.WriteDoubles(cells);
}
void WriteCells(BinaryWriter& writer, std::span<const Gf61> cells) {
  for (const Gf61 v : cells) writer.WriteU64(v.value());
}

Status ReadCells(BinaryReader& reader, std::span<double> cells) {
  return reader.ReadDoubles(cells);
}
Status ReadCells(BinaryReader& reader, std::span<Gf61> cells) {
  for (Gf61& v : cells) {
    uint64_t raw = 0;
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&raw));
    if (raw >= kMersenne61) {
      return DecodeFailure("field element out of canonical range");
    }
    v = Gf61(raw);
  }
  return Status::Ok();
}

template <typename T>
void WriteMatrix(BinaryWriter& writer, const Matrix<T>& m) {
  writer.WriteU64(m.rows());
  writer.WriteU64(m.cols());
  WriteCells(writer, m.Data());
}

template <typename T>
Status ReadMatrix(BinaryReader& reader, Matrix<T>* out) {
  uint64_t rows, cols;
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&rows));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&cols));
  if (cols != 0 && rows > kMaxCells / cols) {
    return DecodeFailure("matrix dimensions exceed limit");
  }
  // Every cell is 8 bytes on disk: a matrix larger than what is left of
  // the input is a truncated file, rejected before it is allocated.
  if (rows * cols > reader.remaining() / 8) {
    return DecodeFailure("unexpected end of stream");
  }
  Matrix<T> m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  SCEC_RETURN_IF_ERROR(ReadCells(reader, m.Data()));
  *out = std::move(m);
  return Status::Ok();
}

template <typename T>
void AppendImpl(const Deployment<T>& deployment, std::string* out) {
  BinaryWriter writer(out);
  writer.WriteBytes({kMagic, sizeof(kMagic)});
  writer.WriteU32(kDeploymentFormatVersion);
  writer.WriteU8(ScalarTag<T>());

  const Plan& plan = deployment.plan;
  writer.WriteU64(deployment.code.m());
  writer.WriteU64(deployment.code.r());
  writer.WriteU64(deployment.l);

  writer.WriteSizeVector(plan.scheme.row_counts);
  writer.WriteSizeVector(plan.participating);
  writer.WriteSizeVector(plan.allocation.rows_per_device);
  writer.WriteU64(plan.allocation.num_devices);
  writer.WriteDouble(plan.allocation.total_cost);
  writer.WriteString(plan.allocation.algorithm);
  writer.WriteDouble(plan.lower_bound);
  writer.WriteU64(plan.i_star);

  writer.WriteU32(static_cast<uint32_t>(deployment.shares.size()));
  for (const DeviceShare<T>& share : deployment.shares) {
    writer.WriteU64(share.device);
    WriteMatrix(writer, share.coded_rows);
  }
}

template <typename T>
Status SaveImpl(const Deployment<T>& deployment, std::ostream& os) {
  std::string bytes;
  AppendImpl(deployment, &bytes);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os.good()) return Internal("stream write failed");
  return Status::Ok();
}

template <typename T>
Result<Deployment<T>> ParseImpl(std::string_view bytes) {
  BinaryReader reader(bytes);
  std::string_view magic;
  if (!reader.ReadView(sizeof(kMagic), &magic).ok() ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return DecodeFailure("bad magic: not an SCEC deployment file");
  }
  uint32_t version;
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kDeploymentFormatVersion) {
    return DecodeFailure("unsupported format version " +
                         std::to_string(version));
  }
  uint8_t tag;
  SCEC_RETURN_IF_ERROR(reader.ReadU8(&tag));
  if (tag != ScalarTag<T>()) {
    return DecodeFailure("scalar type mismatch");
  }

  uint64_t m, r, l;
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&m));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&r));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&l));
  if (m < 1 || r < 1 || r > m || l < 1) {
    return DecodeFailure("invalid (m, r, l) header");
  }

  Deployment<T> deployment;
  deployment.code = StructuredCode(static_cast<size_t>(m),
                                   static_cast<size_t>(r));
  deployment.l = static_cast<size_t>(l);

  Plan& plan = deployment.plan;
  plan.scheme.m = static_cast<size_t>(m);
  plan.scheme.r = static_cast<size_t>(r);
  SCEC_RETURN_IF_ERROR(reader.ReadSizeVector(&plan.scheme.row_counts));
  SCEC_RETURN_IF_ERROR(reader.ReadSizeVector(&plan.participating));
  SCEC_RETURN_IF_ERROR(
      reader.ReadSizeVector(&plan.allocation.rows_per_device));
  uint64_t num_devices;
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&num_devices));
  plan.allocation.num_devices = static_cast<size_t>(num_devices);
  SCEC_RETURN_IF_ERROR(reader.ReadDouble(&plan.allocation.total_cost));
  SCEC_RETURN_IF_ERROR(reader.ReadString(&plan.allocation.algorithm));
  SCEC_RETURN_IF_ERROR(reader.ReadDouble(&plan.lower_bound));
  uint64_t i_star;
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&i_star));
  plan.i_star = static_cast<size_t>(i_star);
  plan.allocation.m = static_cast<size_t>(m);
  plan.allocation.r = static_cast<size_t>(r);

  // Structural validation before touching share payloads.
  SCEC_RETURN_IF_ERROR(
      ValidateSchemeForCode(deployment.code, plan.scheme));
  if (plan.participating.size() != plan.scheme.num_devices()) {
    return DecodeFailure("participating/scheme size mismatch");
  }

  uint32_t share_count;
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&share_count));
  if (share_count != plan.scheme.num_devices()) {
    return DecodeFailure("share count does not match scheme");
  }
  deployment.shares.resize(share_count);
  for (uint32_t d = 0; d < share_count; ++d) {
    uint64_t device;
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&device));
    deployment.shares[d].device = static_cast<size_t>(device);
    SCEC_RETURN_IF_ERROR(ReadMatrix(reader, &deployment.shares[d].coded_rows));
    if (deployment.shares[d].coded_rows.rows() !=
            plan.scheme.row_counts[d] ||
        deployment.shares[d].coded_rows.cols() != deployment.l) {
      return DecodeFailure("share dimensions do not match scheme");
    }
  }
  return deployment;
}

}  // namespace

Status SaveDeployment(const Deployment<double>& deployment,
                      std::ostream& os) {
  return SaveImpl(deployment, os);
}

Status SaveDeployment(const Deployment<Gf61>& deployment, std::ostream& os) {
  return SaveImpl(deployment, os);
}

Result<Deployment<double>> LoadDeploymentDouble(std::istream& is) {
  return ParseImpl<double>(ReadAll(is));
}

Result<Deployment<Gf61>> LoadDeploymentGf61(std::istream& is) {
  return ParseImpl<Gf61>(ReadAll(is));
}

void AppendDeployment(const Deployment<double>& deployment,
                      std::string* out) {
  AppendImpl(deployment, out);
}

void AppendDeployment(const Deployment<Gf61>& deployment, std::string* out) {
  AppendImpl(deployment, out);
}

Result<Deployment<double>> ParseDeploymentDouble(std::string_view bytes) {
  return ParseImpl<double>(bytes);
}

Result<Deployment<Gf61>> ParseDeploymentGf61(std::string_view bytes) {
  return ParseImpl<Gf61>(bytes);
}

Status SaveDeploymentToFile(const Deployment<double>& deployment,
                            const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return InvalidArgument("cannot open " + path + " for writing");
  return SaveDeployment(deployment, os);
}

Status SaveDeploymentToFile(const Deployment<Gf61>& deployment,
                            const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return InvalidArgument("cannot open " + path + " for writing");
  return SaveDeployment(deployment, os);
}

Result<Deployment<double>> LoadDeploymentDoubleFromFile(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return InvalidArgument("cannot open " + path + " for reading");
  return LoadDeploymentDouble(is);
}

Result<Deployment<Gf61>> LoadDeploymentGf61FromFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return InvalidArgument("cannot open " + path + " for reading");
  return LoadDeploymentGf61(is);
}

}  // namespace scec
