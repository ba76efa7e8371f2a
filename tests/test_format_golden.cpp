// SPDX-License-Identifier: MIT
//
// Golden-bytes pins for every durable and on-the-wire format: one journal
// record of each JournalEventKind, every wire message body plus one full
// frame, a double and a Gf61 deployment file, and a sealed snapshot under a
// fixed key and salt. The expected bytes were produced by the iostream-based
// serializer that preceded the buffer-backed one, so any encoder change that
// moves a single byte fails here, and each pin must also decode back to the
// fixture it came from.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment_io.h"
#include "net/wire.h"
#include "recovery/journal.h"
#include "recovery/sealed_snapshot.h"

namespace scec {
namespace {

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Journal: header plus one record of each of the nine event kinds.

using recovery::JournalEvent;
using recovery::JournalEventKind;
using recovery::JournalSegmentRecord;

constexpr uint64_t kGoldenSnapshotCrc = 0x1122334455667788ull;

std::vector<JournalEvent> JournalFixture() {
  std::vector<JournalEvent> events(9);
  events[0].kind = JournalEventKind::kStageDone;
  events[0].device = 1;
  events[1].kind = JournalEventKind::kRestart;
  events[1].generation = 1;
  events[2].kind = JournalEventKind::kSegmentAdded;
  events[2].generation = 1;
  events[2].segment = 2;
  events[2].segment_record = JournalSegmentRecord{
      .index = 2,
      .m = 3,
      .r = 2,
      .row_counts = {2, 2, 1},
      .phys = {0, 3, 5},
      .data_rows = {4, 5, 6},
  };
  events[3].kind = JournalEventKind::kQueryBegin;
  events[3].generation = 1;
  events[3].query_id = 7;
  events[3].values = {0.5, -1.25, 3.0};
  events[4].kind = JournalEventKind::kDispatch;
  events[4].generation = 1;
  events[4].query_id = 7;
  events[4].local = 1;
  events[4].device = 3;
  events[4].attempt = 1;
  events[4].bytes = 24;
  events[5].kind = JournalEventKind::kResponse;
  events[5].generation = 1;
  events[5].query_id = 7;
  events[5].local = 1;
  events[5].device = 3;
  events[5].values = {2.5, -0.0};
  events[6].kind = JournalEventKind::kEvict;
  events[6].generation = 1;
  events[6].device = 4;
  events[6].attempt = recovery::kEvictReasonQuarantine;
  events[7].kind = JournalEventKind::kMaskedQuery;
  events[7].generation = 1;
  events[7].query_id = 7;
  events[8].kind = JournalEventKind::kQueryResult;
  events[8].generation = 1;
  events[8].query_id = 7;
  events[8].values = {1.0, 1e-300, -7.75};
  return events;
}

const char* const kJournalHeaderHex = "5343574a010000008877665544332211";
const char* const kJournalRecordHex[9] = {
    // kStageDone
    "3a000000abb41eef010000000000000000000000000000000000000000000000"
    "0000000000010000000000000000000000000000000000000000000000000000"
    "0000",
    // kRestart
    "3a0000005eaffa4b020100000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000",
    // kSegmentAdded
    "a6000000b2ed331b030100000000000000000000000200000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0001020000000000000003000000000000000200000000000000030000000200"
    "0000000000000200000000000000010000000000000003000000000000000000"
    "0000030000000000000005000000000000000300000004000000000000000500"
    "0000000000000600000000000000",
    // kQueryBegin
    "52000000273ea8e5040100000007000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000030000"
    "00000000000000e03f000000000000f4bf000000000000084000",
    // kDispatch
    "3a0000003a1a8293050100000007000000000000000000000000000000010000"
    "0000000000030000000000000001000000000000001800000000000000000000"
    "0000",
    // kResponse
    "4a0000008f05a6aa060100000007000000000000000000000000000000010000"
    "0000000000030000000000000000000000000000000000000000000000020000"
    "000000000000000440000000000000008000",
    // kEvict
    "3a0000006cfbfa42070100000000000000000000000000000000000000000000"
    "0000000000040000000000000002000000000000000000000000000000000000"
    "0000",
    // kMaskedQuery
    "3a000000a5d1a546080100000007000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000",
    // kQueryResult
    "52000000df88a12d090100000007000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000030000"
    "00000000000000f03f59f3f8c21f6ea5010000000000001fc000",
};

TEST(FormatGolden, JournalRecordOfEveryKindIsPinned) {
  const std::vector<JournalEvent> events = JournalFixture();
  std::ostringstream os;
  {
    recovery::QueryJournal journal(&os, kGoldenSnapshotCrc,
                                   /*group_commit_records=*/64);
    std::string expected = Unhex(kJournalHeaderHex);
    EXPECT_EQ(Hex(os.str()), kJournalHeaderHex);
    for (size_t i = 0; i < events.size(); ++i) {
      std::ostringstream one;
      recovery::QueryJournal single(&one, kGoldenSnapshotCrc, 1,
                                    /*write_header=*/false);
      single.Append(events[i]);
      EXPECT_EQ(Hex(one.str()), kJournalRecordHex[i])
          << recovery::JournalEventKindName(events[i].kind);
      journal.Append(events[i]);
      expected += Unhex(kJournalRecordHex[i]);
    }
    journal.Commit();
    EXPECT_EQ(Hex(os.str()), Hex(expected));
  }

  const auto replay = recovery::LoadJournal(os.str());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->snapshot_crc, kGoldenSnapshotCrc);
  ASSERT_EQ(replay->events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const JournalEvent& got = replay->events[i];
    const JournalEvent& want = events[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.generation, want.generation);
    EXPECT_EQ(got.query_id, want.query_id);
    EXPECT_EQ(got.segment, want.segment);
    EXPECT_EQ(got.local, want.local);
    EXPECT_EQ(got.device, want.device);
    EXPECT_EQ(got.attempt, want.attempt);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.values, want.values);
    ASSERT_EQ(got.segment_record.has_value(),
              want.segment_record.has_value());
    if (want.segment_record.has_value()) {
      EXPECT_EQ(got.segment_record->index, want.segment_record->index);
      EXPECT_EQ(got.segment_record->m, want.segment_record->m);
      EXPECT_EQ(got.segment_record->r, want.segment_record->r);
      EXPECT_EQ(got.segment_record->row_counts,
                want.segment_record->row_counts);
      EXPECT_EQ(got.segment_record->phys, want.segment_record->phys);
      EXPECT_EQ(got.segment_record->data_rows,
                want.segment_record->data_rows);
    }
  }
}

// ---------------------------------------------------------------------------
// Wire: every message body and one full frame.

net::ShareMsg ShareFixture() {
  net::ShareMsg msg;
  msg.share_id = 9;
  msg.rows = 2;
  msg.cols = 2;
  msg.values = {1.0, -2.0, 0.25, 1e10};
  return msg;
}

net::QueryMsg QueryFixture() {
  net::QueryMsg msg;
  msg.rpc_id = 0x0102030405060708ull;
  msg.share_id = 9;
  msg.x = {0.5, -0.5, 3.0};
  return msg;
}

TEST(FormatGolden, WireMessageBodiesArePinned) {
  const net::HelloMsg hello{.coordinator_id = 0xC0, .session_epoch = 3};
  const net::HelloAckMsg hello_ack{.daemon_id = 0xD0, .shares_held = 2};
  const net::ShareMsg share = ShareFixture();
  const net::ShareAckMsg share_ack{
      .share_id = 9, .ok = 0, .error = "no room"};
  const net::QueryMsg query = QueryFixture();
  const net::ResponseMsg response{.rpc_id = 11, .values = {4.0, -8.5}};
  const net::RpcErrorMsg rpc_error{
      .rpc_id = 12, .code = 3, .message = "unknown share"};
  const net::HeartbeatMsg heartbeat{.seq = 0xFFFFFFFFFFull};
  const net::CancelMsg cancel{.rpc_id = 13};

  EXPECT_EQ(Hex(hello.Encode()),
            "c0000000000000000300000000000000");
  EXPECT_EQ(Hex(hello_ack.Encode()),
            "d0000000000000000200000000000000");
  EXPECT_EQ(Hex(share.Encode()),
            "0900000000000000020000000200000004000000000000000000f03f00000000"
            "000000c0000000000000d03f000000205fa00242");
  EXPECT_EQ(Hex(share_ack.Encode()),
            "090000000000000000070000006e6f20726f6f6d");
  EXPECT_EQ(Hex(query.Encode()),
            "0807060504030201090000000000000003000000000000000000e03f00000000"
            "0000e0bf0000000000000840");
  EXPECT_EQ(Hex(response.Encode()),
            "0b0000000000000002000000000000000000104000000000000021c0");
  EXPECT_EQ(Hex(rpc_error.Encode()),
            "0c00000000000000030d000000756e6b6e6f776e207368617265");
  EXPECT_EQ(Hex(heartbeat.Encode()),
            "ffffffffff000000");
  EXPECT_EQ(Hex(cancel.Encode()),
            "0d00000000000000");

  // Every pin decodes back to its fixture.
  const auto hello2 = net::HelloMsg::Decode(hello.Encode());
  ASSERT_TRUE(hello2.ok());
  EXPECT_EQ(hello2->coordinator_id, hello.coordinator_id);
  EXPECT_EQ(hello2->session_epoch, hello.session_epoch);
  const auto hello_ack2 = net::HelloAckMsg::Decode(hello_ack.Encode());
  ASSERT_TRUE(hello_ack2.ok());
  EXPECT_EQ(hello_ack2->daemon_id, hello_ack.daemon_id);
  EXPECT_EQ(hello_ack2->shares_held, hello_ack.shares_held);
  const auto share2 = net::ShareMsg::Decode(share.Encode());
  ASSERT_TRUE(share2.ok());
  EXPECT_EQ(share2->share_id, share.share_id);
  EXPECT_EQ(share2->rows, share.rows);
  EXPECT_EQ(share2->cols, share.cols);
  EXPECT_EQ(share2->values, share.values);
  const auto share_ack2 = net::ShareAckMsg::Decode(share_ack.Encode());
  ASSERT_TRUE(share_ack2.ok());
  EXPECT_EQ(share_ack2->share_id, share_ack.share_id);
  EXPECT_EQ(share_ack2->ok, share_ack.ok);
  EXPECT_EQ(share_ack2->error, share_ack.error);
  const auto query2 = net::QueryMsg::Decode(query.Encode());
  ASSERT_TRUE(query2.ok());
  EXPECT_EQ(query2->rpc_id, query.rpc_id);
  EXPECT_EQ(query2->share_id, query.share_id);
  EXPECT_EQ(query2->x, query.x);
  const auto response2 = net::ResponseMsg::Decode(response.Encode());
  ASSERT_TRUE(response2.ok());
  EXPECT_EQ(response2->rpc_id, response.rpc_id);
  EXPECT_EQ(response2->values, response.values);
  const auto rpc_error2 = net::RpcErrorMsg::Decode(rpc_error.Encode());
  ASSERT_TRUE(rpc_error2.ok());
  EXPECT_EQ(rpc_error2->rpc_id, rpc_error.rpc_id);
  EXPECT_EQ(rpc_error2->code, rpc_error.code);
  EXPECT_EQ(rpc_error2->message, rpc_error.message);
  const auto heartbeat2 = net::HeartbeatMsg::Decode(heartbeat.Encode());
  ASSERT_TRUE(heartbeat2.ok());
  EXPECT_EQ(heartbeat2->seq, heartbeat.seq);
  const auto cancel2 = net::CancelMsg::Decode(cancel.Encode());
  ASSERT_TRUE(cancel2.ok());
  EXPECT_EQ(cancel2->rpc_id, cancel.rpc_id);
}

TEST(FormatGolden, WireFrameIsPinned) {
  const std::string frame =
      net::EncodeFrame(net::WireType::kQuery, QueryFixture().Encode());
  EXPECT_EQ(Hex(frame),
            "534e4554010500002c000000a805ac85cf70d473080706050403020109000000"
            "0000000003000000000000000000e03f000000000000e0bf0000000000000840");

  net::FrameReader reader;
  std::vector<net::Frame> frames;
  ASSERT_TRUE(reader.Feed(frame, &frames).ok());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, net::WireType::kQuery);
  EXPECT_EQ(frames[0].payload, QueryFixture().Encode());
}

// ---------------------------------------------------------------------------
// Deployment files and the sealed snapshot.

// A hand-built deployment (m = 2, r = 1, l = 2 over three devices) so the
// pin depends on the file format alone, not on the planner or the encoder.
template <typename T>
Deployment<T> DeploymentFixture(const std::vector<T>& cells) {
  Deployment<T> deployment;
  deployment.code = StructuredCode(2, 1);
  deployment.l = 2;
  Plan& plan = deployment.plan;
  plan.scheme.m = 2;
  plan.scheme.r = 1;
  plan.scheme.row_counts = {1, 1, 1};
  plan.participating = {0, 2, 3};
  plan.allocation.m = 2;
  plan.allocation.r = 1;
  plan.allocation.num_devices = 3;
  plan.allocation.rows_per_device = {1, 1, 1, 0};
  plan.allocation.total_cost = 4.5;
  plan.allocation.algorithm = "TA1";
  plan.lower_bound = 4.25;
  plan.i_star = 3;
  for (size_t d = 0; d < 3; ++d) {
    DeviceShare<T> share;
    share.device = plan.participating[d];
    share.coded_rows = Matrix<T>(1, 2);
    share.coded_rows(0, 0) = cells[2 * d];
    share.coded_rows(0, 1) = cells[2 * d + 1];
    deployment.shares.push_back(std::move(share));
  }
  return deployment;
}

Deployment<double> DoubleDeploymentFixture() {
  return DeploymentFixture<double>({0.5, -1.25, 3.0, 1e-3, -0.0, 42.0});
}

Deployment<Gf61> Gf61DeploymentFixture() {
  return DeploymentFixture<Gf61>({Gf61(1), Gf61(2), Gf61(kMersenne61 - 1),
                                  Gf61(0), Gf61(0x123456789ull),
                                  Gf61(7)});
}

template <typename T>
void ExpectSameDeployment(const Deployment<T>& got,
                          const Deployment<T>& want) {
  EXPECT_EQ(got.l, want.l);
  EXPECT_EQ(got.code.m(), want.code.m());
  EXPECT_EQ(got.code.r(), want.code.r());
  EXPECT_EQ(got.plan.scheme.row_counts, want.plan.scheme.row_counts);
  EXPECT_EQ(got.plan.participating, want.plan.participating);
  EXPECT_EQ(got.plan.allocation.rows_per_device,
            want.plan.allocation.rows_per_device);
  EXPECT_EQ(got.plan.allocation.num_devices, want.plan.allocation.num_devices);
  EXPECT_EQ(got.plan.allocation.total_cost, want.plan.allocation.total_cost);
  EXPECT_EQ(got.plan.allocation.algorithm, want.plan.allocation.algorithm);
  EXPECT_EQ(got.plan.lower_bound, want.plan.lower_bound);
  EXPECT_EQ(got.plan.i_star, want.plan.i_star);
  ASSERT_EQ(got.shares.size(), want.shares.size());
  for (size_t d = 0; d < got.shares.size(); ++d) {
    EXPECT_EQ(got.shares[d].device, want.shares[d].device);
    EXPECT_EQ(got.shares[d].coded_rows, want.shares[d].coded_rows);
  }
}

TEST(FormatGolden, DoubleDeploymentFileIsPinned) {
  const Deployment<double> deployment = DoubleDeploymentFixture();
  std::ostringstream os;
  ASSERT_TRUE(SaveDeployment(deployment, os).ok());
  EXPECT_EQ(Hex(os.str()),
            "5343454301000000000200000000000000010000000000000002000000000000"
            "0003000000010000000000000001000000000000000100000000000000030000"
            "0000000000000000000200000000000000030000000000000004000000010000"
            "0000000000010000000000000001000000000000000000000000000000030000"
            "0000000000000000000000124003000000544131000000000000114003000000"
            "0000000003000000000000000000000001000000000000000200000000000000"
            "000000000000e03f000000000000f4bf02000000000000000100000000000000"
            "02000000000000000000000000000840fca9f1d24d62503f0300000000000000"
            "0100000000000000020000000000000000000000000000800000000000004540");

  std::istringstream is(os.str());
  const auto loaded = LoadDeploymentDouble(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameDeployment(*loaded, deployment);
}

TEST(FormatGolden, Gf61DeploymentFileIsPinned) {
  const Deployment<Gf61> deployment = Gf61DeploymentFixture();
  std::ostringstream os;
  ASSERT_TRUE(SaveDeployment(deployment, os).ok());
  EXPECT_EQ(Hex(os.str()),
            "5343454301000000010200000000000000010000000000000002000000000000"
            "0003000000010000000000000001000000000000000100000000000000030000"
            "0000000000000000000200000000000000030000000000000004000000010000"
            "0000000000010000000000000001000000000000000000000000000000030000"
            "0000000000000000000000124003000000544131000000000000114003000000"
            "0000000003000000000000000000000001000000000000000200000000000000"
            "0100000000000000020000000000000002000000000000000100000000000000"
            "0200000000000000feffffffffffff1f00000000000000000300000000000000"
            "0100000000000000020000000000000089674523010000000700000000000000");

  std::istringstream is(os.str());
  const auto loaded = LoadDeploymentGf61(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameDeployment(*loaded, deployment);
}

TEST(FormatGolden, SealedSnapshotIsPinned) {
  constexpr uint64_t kKey = 0x5EA1ED0C0FFEEull;
  constexpr uint64_t kSalt = 0x5A175A17ull;
  const Deployment<double> deployment = DoubleDeploymentFixture();
  std::ostringstream os;
  ASSERT_TRUE(
      recovery::SaveSealedDeployment(deployment, kKey, kSalt, os).ok());
  EXPECT_EQ(Hex(os.str()),
            "5343535301000000175a175a00000000e4f283382401000000000000b9ba423f"
            "0fd06a689620e7637f85e2d369927d783d66654651b46e89ad954ba831807794"
            "d4ac3c5002bf9add48b10af4a72dc18f5ac43a031b0ce874706a00856dd2c6d3"
            "80c2399eb523de0abd8741344a75a9e72666a23043bf9c31c8594dea8029c857"
            "1133a0ce90456f1603cd64006f04683e55b3dfa3d9d3810d6addf7a63112e9f9"
            "cfdf4d89b37211a39eb233af16274ad0591d2c29ba3a49ce61f88a04973eec36"
            "7eb97699b3a8f106fe1aa8756bfdc57984689311c284080531b3da9bc7cc270c"
            "f6f60031a915c6c54096eed41535d01bc02d1973acd20307e4e21c068b449c9d"
            "4893051905f9492b1c39b78612287f50faeaee8a5090369fc755404d42bdec26"
            "18a422f706529f0c400e39535747d4c02fe078aad9a842b2b4c138e5316e5c15");

  std::istringstream is(os.str());
  const auto loaded = recovery::LoadSealedDeploymentDouble(is, kKey);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameDeployment(*loaded, deployment);
}

}  // namespace
}  // namespace scec
