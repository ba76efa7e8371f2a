// SPDX-License-Identifier: MIT
//
// Share staging: the SHARE frame written in place equals the frame built
// from ShareMsg::Encode, a share fed to the daemon in arbitrary pieces
// lands byte for byte in its matrix, hostile SHARE bodies are refused with
// a typed error, and the value bytes are allocated once per side. Set-up
// memory: a pooled encode allocates each share on the thread that encodes
// it, and the driver stages its shares one at a time through one buffer,
// byte-equal to the segment encode. Also the transport's Drain: it returns
// on the last DRAIN_ACK and times out on a peer that never sends one.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "coding/encoder.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/thread_pool.h"
#include "core/segment.h"
#include "field/gf_prime.h"
#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "net/scecd.h"
#include "net/sim_transport.h"
#include "net/socket.h"
#include "net/socket_transport.h"
#include "net/wire.h"

// The allocation pins replace global operator new/delete with counting
// versions. Sanitizer runtimes own the allocator, so skip there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCEC_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCEC_ALLOC_COUNTER 0
#else
#define SCEC_ALLOC_COUNTER 1
#endif
#else
#define SCEC_ALLOC_COUNTER 1
#endif

namespace {
// Allocations of at least this many bytes are counted: the whole process,
// and the calling thread on its own.
std::atomic<size_t> g_big_threshold{0};
std::atomic<size_t> g_big_allocs{0};
thread_local size_t t_big_allocs = 0;
}  // namespace

#if SCEC_ALLOC_COUNTER
// GCC pairs the malloc-backed replacement operator new with the library
// operator delete at inlined call sites and warns; the pairing is fine
// because both replacements below are global.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  const size_t threshold = g_big_threshold.load(std::memory_order_relaxed);
  if (threshold != 0 && size >= threshold) {
    g_big_allocs.fetch_add(1, std::memory_order_relaxed);
    ++t_big_allocs;
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // SCEC_ALLOC_COUNTER

namespace scec::net {
namespace {

// Every bit pattern a double can hold, NaN payloads and denormals
// included: staging must move bytes, not values.
Matrix<double> RandomBitsShare(size_t rows, size_t cols, uint64_t seed) {
  Matrix<double> share(rows, cols);
  Xoshiro256StarStar rng(seed);
  for (double& value : share.Data()) {
    const uint64_t bits = rng.Next();
    std::memcpy(&value, &bits, sizeof(value));
  }
  return share;
}

// The daemon's SHARE path without the socket: parse, then copy the values
// straight into the matrix.
Status DecodeShareInto(std::string_view payload, Matrix<double>* out) {
  Result<ShareBodyView> view = ParseShareBody(payload);
  if (!view.ok()) return view.status();
  *out = Matrix<double>(view->rows, view->cols);
  return BinaryReader(view->values).ReadDoubles(out->Data());
}

bool SameBytes(const Matrix<double>& a, const Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.Data().size_bytes()) == 0;
}

TEST(NetWireShareFrame, InPlaceFrameEqualsEncodeFrameOfShareMsg) {
  const size_t shapes[][2] = {{1, 1}, {7, 3}, {205, 1024}};
  for (const auto& shape : shapes) {
    const Matrix<double> rows = RandomBitsShare(shape[0], shape[1], shape[0]);
    ShareMsg msg;
    msg.share_id = 0x5EC0 + shape[0];
    msg.rows = static_cast<uint32_t>(shape[0]);
    msg.cols = static_cast<uint32_t>(shape[1]);
    msg.values.assign(rows.Data().begin(), rows.Data().end());
    EXPECT_EQ(EncodeShareFrame(msg.share_id, msg.rows, msg.cols, rows.Data()),
              EncodeFrame(WireType::kShare, msg.Encode()))
        << shape[0] << "x" << shape[1];
  }
}

TEST(NetWireShareFrame, RandomReadSizesLandByteEqualInMatrix) {
  const Matrix<double> share = RandomBitsShare(205, 1024, 0x1A4D);
  // A frame before and after the share, so the share starts and ends in
  // the middle of a read.
  std::string stream = EncodeFrame(WireType::kHeartbeat, "before");
  stream += EncodeShareFrame(9, 205, 1024, share.Data());
  stream += EncodeFrame(WireType::kHeartbeat, "after");
  for (uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256StarStar sizes(seed);
    FrameReader reader;
    Matrix<double> landed;
    std::vector<std::string> heartbeats;
    size_t shares = 0;
    for (size_t offset = 0; offset < stream.size();) {
      const size_t len = std::min<size_t>(stream.size() - offset,
                                          1 + sizes.NextBelow(64 << 10));
      ASSERT_TRUE(reader
                      .Feed(std::string_view(stream).substr(offset, len),
                            [&](WireType type, std::string_view payload) {
                              if (type == WireType::kShare) {
                                ++shares;
                                EXPECT_TRUE(
                                    DecodeShareInto(payload, &landed).ok());
                              } else {
                                heartbeats.emplace_back(payload);
                              }
                              return true;
                            })
                      .ok());
      offset += len;
    }
    EXPECT_EQ(shares, 1u);
    EXPECT_TRUE(SameBytes(landed, share)) << "seed " << seed;
    EXPECT_EQ(heartbeats, (std::vector<std::string>{"before", "after"}));
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

// Blocking client end of a loopback connection to a daemon.
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    Result<int> fd = ConnectTcp(port);
    SCEC_CHECK(fd.ok()) << fd.status();
    fd_ = *fd;
  }
  ~RawClient() { close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  // Writes `bytes` in pieces of 1 B .. 64 KiB.
  void Send(std::string_view bytes, Xoshiro256StarStar* sizes) {
    while (!bytes.empty()) {
      const size_t len = std::min<size_t>(bytes.size(),
                                          1 + sizes->NextBelow(64 << 10));
      const ssize_t n = send(fd_, bytes.data(), len, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      bytes.remove_prefix(static_cast<size_t>(n));
    }
  }

  // Reads until one frame arrives (or 5 s pass).
  Frame Receive() {
    std::vector<Frame> frames;
    for (int i = 0; i < 100 && frames.empty(); ++i) {
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, 50) <= 0) continue;
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      EXPECT_TRUE(
          reader_.Feed(std::string_view(buf, static_cast<size_t>(n)), &frames)
              .ok());
    }
    SCEC_CHECK_EQ(frames.size(), 1u);
    return frames.front();
  }

  ShareAckMsg Stage(std::string_view share_frame, Xoshiro256StarStar* sizes) {
    Send(share_frame, sizes);
    const Frame frame = Receive();
    EXPECT_EQ(frame.type, WireType::kShareAck);
    Result<ShareAckMsg> ack = ShareAckMsg::Decode(frame.payload);
    SCEC_CHECK(ack.ok());
    return *ack;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

TEST(NetWireShareFrame, DaemonStoresShareFedInRandomPieces) {
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  {
    RawClient client(daemon.port());
    Xoshiro256StarStar sizes(0xFEED);
    const Matrix<double> share = RandomBitsShare(205, 1024, 0xB17E);
    const ShareAckMsg ack =
        client.Stage(EncodeShareFrame(3, 205, 1024, share.Data()), &sizes);
    EXPECT_EQ(ack.ok, 1) << ack.error;
    EXPECT_EQ(daemon.shares_held(), 1u);
    // The daemon answers with its stored matrix; the same kernel on the
    // original gives the same bits only if every byte landed.
    std::vector<double> x(1024);
    Xoshiro256StarStar xrng(5);
    for (double& v : x) v = 2.0 * xrng.NextDouble() - 1.0;
    QueryMsg query;
    query.rpc_id = 1;
    query.share_id = 3;
    query.x = x;
    client.Send(EncodeFrame(WireType::kQuery, query.Encode()), &sizes);
    const Frame frame = client.Receive();
    ASSERT_EQ(frame.type, WireType::kResponse);
    Result<ResponseMsg> response = ResponseMsg::Decode(frame.payload);
    ASSERT_TRUE(response.ok());
    std::vector<double> expect(205);
    MatVecInto(share, std::span<const double>(x), std::span<double>(expect));
    ASSERT_EQ(response->values.size(), expect.size());
    EXPECT_EQ(0, std::memcmp(response->values.data(), expect.data(),
                             8 * expect.size()));
  }
  daemon.Stop();
}

// A SHARE body: share_id, rows, cols, then the u32 count and `count`
// doubles, then `trailing` extra bytes; `cut` bytes are removed from the
// end (truncation).
std::string ShareBody(uint32_t rows, uint32_t cols, uint32_t count,
                      size_t trailing, size_t cut) {
  std::string body;
  BinaryWriter writer(&body);
  writer.WriteU64(77);
  writer.WriteU32(rows);
  writer.WriteU32(cols);
  writer.WriteDoubleVector(std::vector<double>(count, 1.5));
  body.append(trailing, '\x5A');
  body.resize(body.size() - cut);
  return body;
}

TEST(NetWireShareFrame, HostileShareBodiesAreRefusedWithTypedError) {
  struct Case {
    const char* name;
    std::string body;
  };
  const Case cases[] = {
      {"count below rows*cols", ShareBody(4, 4, 15, 0, 0)},
      {"count above rows*cols", ShareBody(4, 4, 17, 0, 0)},
      {"rows*cols overflows 32 bits", ShareBody(1u << 16, 1u << 16, 0, 0, 0)},
      {"truncated values", ShareBody(4, 4, 16, 0, 3)},
      {"truncated header", ShareBody(4, 4, 16, 0, 16 * 8 + 6)},
      {"trailing bytes", ShareBody(4, 4, 16, 1, 0)},
      {"huge count, no values",
       [] {
         std::string body;
         BinaryWriter writer(&body);
         writer.WriteU64(77);
         writer.WriteU32(1u << 13);
         writer.WriteU32(1u << 13);
         writer.WriteU32(1u << 26);
         return body;
       }()},
  };
  // The parser on its own: a typed error (malformed: kInvalidArgument;
  // short: kDecodeFailure), and the same one ShareMsg gives.
  for (const Case& c : cases) {
    Result<ShareBodyView> view = ParseShareBody(c.body);
    ASSERT_FALSE(view.ok()) << c.name;
    EXPECT_TRUE(view.status().code() == ErrorCode::kInvalidArgument ||
                view.status().code() == ErrorCode::kDecodeFailure)
        << c.name << ": " << view.status();
    Result<ShareMsg> msg = ShareMsg::Decode(c.body);
    ASSERT_FALSE(msg.ok()) << c.name;
    EXPECT_EQ(msg.status().code(), view.status().code()) << c.name;
    EXPECT_EQ(msg.status().message(), view.status().message()) << c.name;
  }
  // The daemon: a refusing SHARE_ACK on the same connection, which stays
  // up and still accepts a valid share.
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  {
    RawClient client(daemon.port());
    Xoshiro256StarStar sizes(0xBAD);
    for (const Case& c : cases) {
      const ShareAckMsg ack =
          client.Stage(EncodeFrame(WireType::kShare, c.body), &sizes);
      EXPECT_EQ(ack.ok, 0) << c.name;
      EXPECT_FALSE(ack.error.empty()) << c.name;
    }
    EXPECT_EQ(daemon.shares_held(), 0u);
    const Matrix<double> share = RandomBitsShare(4, 4, 1);
    EXPECT_EQ(client.Stage(EncodeShareFrame(77, 4, 4, share.Data()), &sizes)
                  .ok,
              1);
    EXPECT_EQ(daemon.shares_held(), 1u);
  }
  daemon.Stop();
}

// Counts share-sized allocations while `fn` runs: on the calling thread,
// and in the whole process.
struct BigAllocs {
  size_t caller = 0;
  size_t total = 0;
};
template <typename Fn>
BigAllocs CountBigAllocs(size_t threshold, Fn&& fn) {
  const size_t caller_before = t_big_allocs;
  const size_t total_before = g_big_allocs.load();
  g_big_threshold.store(threshold);
  fn();
  g_big_threshold.store(0);
  return {t_big_allocs - caller_before, g_big_allocs.load() - total_before};
}

TEST(NetTransportStaging, ShareSizedAllocationsPerStagedShare) {
  if (!SCEC_ALLOC_COUNTER) {
    GTEST_SKIP() << "allocation counting is off under sanitizers";
  }
  const Matrix<double> share = RandomBitsShare(205, 1024, 0x5A5A);
  const size_t share_bytes = share.Data().size_bytes();
  ScecDaemon d0(ScecdOptions{0, 0}), d1(ScecdOptions{1, 0});
  ASSERT_TRUE(d0.Start().ok());
  ASSERT_TRUE(d1.Start().ok());
  {
    SocketTransport transport({d0.port(), d1.port()},
                              SocketTransportOptions{});
    // The coordinator (this thread) allocates the frame and nothing else;
    // the transport's loop thread moves it to the socket. The daemon's
    // side: its connection's frame buffer, 1 MiB and then the whole
    // 1.68 MiB frame (the claimed length is committed only as the bytes
    // arrive), and the share's matrix.
    BigAllocs first = CountBigAllocs(share_bytes / 2, [&] {
      ASSERT_TRUE(transport.StageShare(0, 1, share).ok());
      ASSERT_TRUE(transport.StageShare(1, 1, share).ok());
    });
    EXPECT_EQ(first.caller, 2u);
    EXPECT_EQ(first.total - first.caller, 6u);
    // A new share on the same connection: the buffer of the last frame,
    // above 1 MiB, was freed, so it is grown again.
    BigAllocs second = CountBigAllocs(share_bytes / 2, [&] {
      ASSERT_TRUE(transport.StageShare(0, 2, share).ok());
    });
    EXPECT_EQ(second.caller, 1u);
    EXPECT_EQ(second.total - second.caller, 3u);
    // Restaging a held share id with the same shape (what a restarted
    // coordinator does) overwrites the daemon's matrix in place.
    BigAllocs restage = CountBigAllocs(share_bytes / 2, [&] {
      ASSERT_TRUE(transport.StageShare(0, 2, share).ok());
    });
    EXPECT_EQ(restage.caller, 1u);
    EXPECT_EQ(restage.total - restage.caller, 2u);
    EXPECT_TRUE(transport.Drain(2.0).ok());
  }
  EXPECT_EQ(d0.shares_held(), 2u);
  EXPECT_EQ(d1.shares_held(), 1u);
  d0.Stop();
  d1.Stop();
}

// --- Set-up memory -------------------------------------------------------

// The perfbench loopback fleet: 8 devices of equal speed whose
// communication costs differ.
DeviceFleet LoopbackFleet() {
  std::vector<EdgeDevice> specs;
  for (size_t d = 0; d < 8; ++d) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.1 * static_cast<double>(d % 7);
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    specs.push_back(device);
  }
  return DeviceFleet(std::move(specs));
}

Matrix<double> RandomA(size_t m, size_t l, uint64_t seed) {
  Matrix<double> a(m, l);
  Xoshiro256StarStar rng(seed);
  for (double& value : a.Data()) value = rng.NextDouble();
  return a;
}

// Forwards to a SimTransport and keeps a copy of every staged share.
class RecordingTransport : public Transport {
 public:
  struct Staged {
    size_t device = 0;
    uint64_t share_id = 0;
    Matrix<double> rows;
  };

  explicit RecordingTransport(SimTransport* inner) : inner_(inner) {}
  const std::vector<Staged>& staged() const { return staged_; }

  size_t num_devices() const override { return inner_->num_devices(); }
  double Now() const override { return inner_->Now(); }
  Status StageShare(size_t device, uint64_t share_id,
                    const Matrix<double>& rows) override {
    staged_.push_back({device, share_id, rows});
    return inner_->StageShare(device, share_id, rows);
  }
  uint64_t SubmitQuery(size_t device, uint64_t share_id,
                       const std::vector<double>& x, double deadline_s,
                       double start_delay_s) override {
    return inner_->SubmitQuery(device, share_id, x, deadline_s,
                               start_delay_s);
  }
  uint64_t AddAlarm(double delay_s) override {
    return inner_->AddAlarm(delay_s);
  }
  bool Cancel(uint64_t id) override { return inner_->Cancel(id); }
  size_t PollInto(std::vector<Completion>* out, double max_wait_s) override {
    return inner_->PollInto(out, max_wait_s);
  }
  const NetTransportStats& stats() const override { return inner_->stats(); }
  Status Drain(double timeout_s) override { return inner_->Drain(timeout_s); }

 private:
  SimTransport* inner_;
  std::vector<Staged> staged_;
};

// Under sanitizers only the allocation counts are skipped: the pooled
// encode, each share allocated on a pool thread, still runs under TSan.
TEST(SetupMemory, PooledEncodeAllocatesEachShareOnItsEncodingThread) {
  // Gf61 at m = l = 1024 in nine 128-row blocks of 1 MiB.
  const size_t m = 1024, r = 128, l = 1024;
  const StructuredCode code(m, r);
  LcecScheme scheme;
  scheme.m = m;
  scheme.r = r;
  scheme.row_counts.assign((m + r) / r, r);
  ChaCha20Rng rng(5);
  const Matrix<Gf61> a = GeneratePadRows<Gf61>(m, l, rng);
  const Matrix<Gf61> pads = GeneratePadRows<Gf61>(r, l, rng);
  const size_t share_bytes = r * l * sizeof(Gf61);
  const size_t devices = scheme.num_devices();

  // Serially every share is allocated on the calling thread.
  const BigAllocs serial = CountBigAllocs(share_bytes / 2, [&] {
    EXPECT_EQ(EncodeShares(code, scheme, a, pads).size(), devices);
  });
  if (SCEC_ALLOC_COUNTER) {
    EXPECT_EQ(serial.caller, devices);
    EXPECT_EQ(serial.total, devices);
  }

  // Pooled, each share is allocated by the thread that encodes it. The
  // calling thread takes part in ParallelFor, so it still allocates the
  // shares it encodes itself, but never all of them up front: across a few
  // runs the workers must allocate some. (Allocating every share before
  // the fan-out puts all of them on the caller in every run.)
  ThreadPool pool(4);
  const std::vector<DeviceShare<Gf61>> reference =
      EncodeShares(code, scheme, a, pads);
  size_t fewest_on_caller = devices;
  for (int run = 0; run < 20 && fewest_on_caller == devices; ++run) {
    std::vector<DeviceShare<Gf61>> shares;
    const BigAllocs pooled = CountBigAllocs(share_bytes / 2, [&] {
      shares = EncodeShares(code, scheme, a, pads, &pool);
    });
    if (SCEC_ALLOC_COUNTER) {
      EXPECT_EQ(pooled.total, devices);
      fewest_on_caller = std::min(fewest_on_caller, pooled.caller);
    } else {
      fewest_on_caller = 0;  // nothing counted: one run
    }
    ASSERT_EQ(shares.size(), devices);
    for (size_t j = 0; j < devices; ++j) {
      EXPECT_EQ(shares[j].device, j);
      EXPECT_EQ(shares[j].coded_rows, reference[j].coded_rows);
    }
  }
  EXPECT_LT(fewest_on_caller, devices);
}

TEST(SetupMemory, SetupStagesThroughOneBufferOnTheCaller) {
  if (!SCEC_ALLOC_COUNTER) {
    GTEST_SKIP() << "allocation counting is off under sanitizers";
  }
  const size_t m = 1024, l = 1024;
  const DeviceFleet fleet = LoopbackFleet();
  NetCoordinatorOptions options;
  options.record_trace = true;
  NetCoordinator coordinator(RandomA(m, l, 3), fleet, options);
  SimTransport transport(fleet.devices(), SimTransportOptions{});
  // Share-sized: far above a digest (l values) or any per-row index, below
  // the smallest share and the pads (hundreds of rows of l values).
  const BigAllocs setup = CountBigAllocs(256 << 10, [&] {
    ASSERT_TRUE(coordinator.Setup(&transport).ok());
  });
  size_t slots = 0;
  for (const std::string& line : coordinator.trace()) {
    slots += line.rfind("stage seg=0 ", 0) == 0;
  }
  ASSERT_GE(slots, 2u);
  // The pads, one staging buffer, and SimTransport's copy of each share as
  // it lands on its device. Encoding every share before staging the first
  // adds one share-sized buffer per slot and drops the staging buffer.
  EXPECT_EQ(setup.caller, 2 + slots);
  EXPECT_EQ(setup.total, setup.caller);
}

TEST(SetupMemory, SetupStagesTheSegmentEncodeByteForByte) {
  // One guard pair on top of the base segment: two fresh-pad segments from
  // one pad stream.
  const size_t m = 256, l = 64;
  const DeviceFleet fleet = LoopbackFleet();
  const Matrix<double> a = RandomA(m, l, 9);
  NetCoordinatorOptions options;
  options.byzantine_tolerance = 1;
  options.pad_seed = 1234;
  NetCoordinator coordinator(a, fleet, options);
  SimTransport sim(fleet.devices(), SimTransportOptions{});
  RecordingTransport transport(&sim);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());
  ASSERT_EQ(coordinator.byzantine_tolerance_effective(), 1u);

  Result<CodedSegment> base =
      PlanSegment(AllRows(m), l, fleet, [](size_t) { return true; },
                  TaAlgorithm::kAuto);
  ASSERT_TRUE(base.ok()) << base.status();
  const std::vector<RecordingTransport::Staged>& staged = transport.staged();
  const size_t base_slots = base->num_slots();
  ASSERT_EQ(staged.size(), base_slots + 2);
  const CodedSegment guard = PairSegment(
      AllRows(m), staged[base_slots].device, staged[base_slots + 1].device);

  ChaCha20Rng pad_rng(options.pad_seed);
  const EncodedDeployment<double> base_encoded =
      EncodeSegment(*base, a, pad_rng);
  const EncodedDeployment<double> guard_encoded =
      EncodeSegment(guard, a, pad_rng);
  std::vector<std::pair<size_t, const Matrix<double>*>> expected;
  for (size_t slot = 0; slot < base_slots; ++slot) {
    expected.emplace_back(base->devices()[slot],
                          &base_encoded.shares[slot].coded_rows);
  }
  for (size_t slot = 0; slot < 2; ++slot) {
    expected.emplace_back(guard.devices()[slot],
                          &guard_encoded.shares[slot].coded_rows);
  }
  for (size_t i = 0; i < staged.size(); ++i) {
    EXPECT_EQ(staged[i].share_id, i + 1);
    EXPECT_EQ(staged[i].device, expected[i].first) << i;
    EXPECT_TRUE(SameBytes(staged[i].rows, *expected[i].second)) << i;
  }
  EXPECT_EQ(ReconcileLedgers(coordinator.stats(), sim.stats(), l), "");

  // Queries decode exactly through the staged shares.
  const std::vector<double> x(l, 0.5);
  Result<std::vector<double>> y = coordinator.Query(x);
  ASSERT_TRUE(y.ok()) << y.status();
  EXPECT_EQ(ReconcileLedgers(coordinator.stats(), sim.stats(), l), "");
}

// A header's length is only a claim: a peer that sends a CRC-valid header
// for a kMaxPayloadLen (64 MiB) SHARE and then trickles or stops must not
// make the reader commit memory for bytes that never came.
// (Under sanitizers only the allocation counts are skipped.)
TEST(NetWireShareFrame, ClaimedLengthIsNotAllocatedBeforeItArrives) {
  std::string header(kFrameHeaderSize, '\0');
  std::memcpy(header.data(), "SNET", 4);
  header[4] = static_cast<char>(kWireVersion);
  header[5] = static_cast<char>(WireType::kShare);
  const auto put_u32 = [&header](size_t at, uint32_t v) {
    for (size_t i = 0; i < 4; ++i) {
      header[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  put_u32(8, kMaxPayloadLen);
  put_u32(16, Crc32(header.data(), 16));
  const std::string body(3 << 20, 'x');
  const auto no_frame = [](WireType, std::string_view) {
    ADD_FAILURE() << "no frame is complete";
    return true;
  };
  FrameReader split, whole;
  // The header cut by a read, then a few bytes: at most 1 MiB.
  BigAllocs few = CountBigAllocs((1 << 20) + 64, [&] {
    ASSERT_TRUE(split.Feed(std::string_view(header).substr(0, 10), no_frame)
                    .ok());
    ASSERT_TRUE(split.Feed(std::string_view(header).substr(10), no_frame)
                    .ok());
    ASSERT_TRUE(
        split.Feed(std::string_view(body).substr(0, 100), no_frame).ok());
    ASSERT_TRUE(
        whole.Feed(header + body.substr(0, 100), no_frame).ok());
  });
  if (SCEC_ALLOC_COUNTER) {
    EXPECT_EQ(few.total, 0u);
  }
  EXPECT_EQ(split.buffered_bytes(), kFrameHeaderSize + 100);
  EXPECT_EQ(whole.buffered_bytes(), kFrameHeaderSize + 100);
  // 3 MiB more in 64 KiB reads: the buffer stays within twice what came.
  BigAllocs trickle = CountBigAllocs(8 << 20, [&] {
    for (size_t at = 100; at < body.size(); at += 64 << 10) {
      ASSERT_TRUE(split
                      .Feed(std::string_view(body).substr(at, 64 << 10),
                            no_frame)
                      .ok());
    }
  });
  if (SCEC_ALLOC_COUNTER) {
    EXPECT_EQ(trickle.total, 0u);
  }
  EXPECT_EQ(split.buffered_bytes(), kFrameHeaderSize + body.size());
}

bool WaitAllReady(const SocketTransport& transport) {
  for (int i = 0; i < 200; ++i) {
    bool ready = true;
    for (size_t d = 0; d < transport.num_devices(); ++d) {
      ready = ready && transport.ChannelStateFor(d) == ChannelState::kReady;
    }
    if (ready) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(NetTransportDrain, ReturnsOnceEveryDaemonAcks) {
  ScecDaemon d0(ScecdOptions{0, 0}), d1(ScecdOptions{1, 0}),
      d2(ScecdOptions{2, 0});
  ASSERT_TRUE(d0.Start().ok());
  ASSERT_TRUE(d1.Start().ok());
  ASSERT_TRUE(d2.Start().ok());
  {
    SocketTransport transport({d0.port(), d1.port(), d2.port()},
                              SocketTransportOptions{});
    ASSERT_TRUE(WaitAllReady(transport));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_TRUE(transport.Drain(30.0).ok());
    // Woken by the last ack, far inside the timeout.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    // Draining again (a second kill) behaves the same.
    EXPECT_TRUE(transport.Drain(30.0).ok());
  }
  d0.Stop();
  d1.Stop();
  d2.Stop();
}

// A peer that completes the handshake and answers heartbeats, so its
// channel stays ready, but never acknowledges DRAIN.
class NoDrainAckPeer {
 public:
  NoDrainAckPeer() {
    Result<int> fd = ListenTcp(0, &port_);
    SCEC_CHECK(fd.ok()) << fd.status();
    listen_fd_ = *fd;
    thread_ = std::thread([this] { Run(); });
  }
  ~NoDrainAckPeer() {
    stop_.store(true);
    thread_.join();
    close(listen_fd_);
  }
  NoDrainAckPeer(const NoDrainAckPeer&) = delete;
  NoDrainAckPeer& operator=(const NoDrainAckPeer&) = delete;
  uint16_t port() const { return port_; }
  size_t drains_seen() const { return drains_.load(); }

 private:
  void Run() {
    int conn = -1;
    FrameReader reader;
    while (!stop_.load()) {
      pollfd pfd{conn >= 0 ? conn : listen_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 10) <= 0) continue;
      if (conn < 0) {
        Result<int> accepted = AcceptTcp(listen_fd_);
        if (accepted.ok() && *accepted >= 0) conn = *accepted;
        continue;
      }
      char buf[4096];
      const ssize_t n = recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) break;
      (void)reader.Feed(std::string_view(buf, static_cast<size_t>(n)),
                        [&](WireType type, std::string_view payload) {
                          std::string reply;
                          if (type == WireType::kHello) {
                            HelloAckMsg ack;
                            reply = EncodeFrame(WireType::kHelloAck,
                                                ack.Encode());
                          } else if (type == WireType::kHeartbeat) {
                            reply = EncodeFrame(WireType::kHeartbeatAck,
                                                payload);
                          } else if (type == WireType::kDrain) {
                            drains_.fetch_add(1);
                          }
                          if (!reply.empty()) {
                            (void)send(conn, reply.data(), reply.size(),
                                       MSG_NOSIGNAL);
                          }
                          return true;
                        });
    }
    if (conn >= 0) close(conn);
  }

  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> drains_{0};
  std::thread thread_;
};

TEST(NetTransportDrain, TimesOutOnAPeerThatNeverAcks) {
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  NoDrainAckPeer silent;
  {
    SocketTransport transport({daemon.port(), silent.port()},
                              SocketTransportOptions{});
    ASSERT_TRUE(WaitAllReady(transport));
    const auto start = std::chrono::steady_clock::now();
    const Status status = transport.Drain(0.2);
    EXPECT_GE(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(200));
    EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status;
    EXPECT_EQ(status.message().rfind("TIMEOUT", 0), 0u) << status;
    EXPECT_EQ(silent.drains_seen(), 1u);
  }
  daemon.Stop();
}

}  // namespace
}  // namespace scec::net
