// SPDX-License-Identifier: MIT

#include "net/chaos_proxy.h"

#include <unistd.h>

#include <utility>
#include <vector>

#include "common/check.h"

namespace scec::net {
namespace {

// Faults apply to the query path only; handshake, staging, and drain frames
// pass untouched so setup stays reliable under loss.
bool IsDataFrame(WireType type) {
  switch (type) {
    case WireType::kQuery:
    case WireType::kResponse:
    case WireType::kRpcError:
    case WireType::kHeartbeat:
    case WireType::kHeartbeatAck:
    case WireType::kCancel:
      return true;
    default:
      return false;
  }
}

}  // namespace

struct ChaosProxy::Pair {
  std::unique_ptr<BufferedSocket> client;
  std::unique_ptr<BufferedSocket> upstream;
  FrameReader client_reader;    // client → upstream direction
  FrameReader upstream_reader;  // upstream → client direction
  // Reorder holdback: the encoded frame waiting to be swapped behind the
  // next one, per direction.
  std::string held_to_upstream;
  std::string held_to_client;
  int client_fd = -1;
};

ChaosProxy::ChaosProxy(ChaosProxyOptions options)
    : options_(options), rng_(options.seed) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  SCEC_CHECK(!started_);
  Result<int> listen = ListenTcp(options_.listen_port, &port_);
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  loop_.WatchFd(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                [this](uint32_t) { HandleAccept(); });
  thread_ = std::thread([this]() { loop_.Run(); });
  started_ = true;
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (!started_) return;
  loop_.Post([this]() {
    for (auto& [fd, pair] : pairs_) {
      pair->client->Close();
      pair->upstream->Close();
    }
    pairs_.clear();
  });
  loop_.Stop();
  thread_.join();
  if (listen_fd_ >= 0) {
    loop_.UnwatchFd(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

ChaosProxyStats ChaosProxy::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ChaosProxy::HandleAccept() {
  while (true) {
    Result<int> client_fd = AcceptTcp(listen_fd_);
    if (!client_fd.ok() || *client_fd < 0) return;
    if (crashed_.load()) {
      close(*client_fd);  // a crashed device refuses every connection
      continue;
    }
    Result<int> upstream_fd = ConnectTcp(options_.upstream_port);
    if (!upstream_fd.ok()) {
      // Daemon unreachable: refuse by dropping the client immediately — the
      // coordinator sees a reset and backs off.
      close(*client_fd);
      continue;
    }
    auto pair = std::make_unique<Pair>();
    Pair* raw = pair.get();
    raw->client_fd = *client_fd;
    raw->client = std::make_unique<BufferedSocket>(&loop_, *client_fd);
    raw->upstream = std::make_unique<BufferedSocket>(&loop_, *upstream_fd);
    pairs_[*client_fd] = std::move(pair);
    raw->client->Start(
        [this, raw](std::string_view bytes) {
          OnBytes(raw, /*from_client=*/true, bytes);
        },
        [this, raw](NetError, const std::string&) { ClosePair(raw); });
    raw->upstream->Start(
        [this, raw](std::string_view bytes) {
          OnBytes(raw, /*from_client=*/false, bytes);
        },
        [this, raw](NetError, const std::string&) { ClosePair(raw); });
  }
}

void ChaosProxy::ClosePair(Pair* pair) {
  auto it = pairs_.find(pair->client_fd);
  if (it == pairs_.end()) return;
  it->second->client->Close();
  it->second->upstream->Close();
  pairs_.erase(it);
}

void ChaosProxy::OnBytes(Pair* pair, bool from_client,
                         std::string_view bytes) {
  // ForwardFrame may ClosePair (kill fault), freeing `pair` — keep the key
  // by value so the liveness re-check never dereferences freed memory.
  const int client_fd = pair->client_fd;
  FrameReader& reader = from_client ? pair->client_reader
                                    : pair->upstream_reader;
  std::vector<Frame> frames;
  Status status = reader.Feed(bytes, &frames);
  if (!status.ok()) {
    // The proxy itself received garbage (should only happen when our own
    // corruption knob fired upstream of another proxy): drop the pair.
    ClosePair(pair);
    return;
  }
  for (Frame& frame : frames) {
    ForwardFrame(pair, from_client, std::move(frame));
    if (pairs_.find(client_fd) == pairs_.end()) return;  // killed
  }
}

void ChaosProxy::ForwardFrame(Pair* pair, bool from_client, Frame frame) {
  if (partitioned_.load()) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.partition_discards;
    return;
  }

  std::string encoded = EncodeFrame(frame.type, frame.payload);

  // Crash: write HALF the frame, then cut both sides (once).
  if (!kill_done_ && crashed_.load()) {
    kill_done_ = true;
    BufferedSocket* dest = from_client ? pair->upstream.get()
                                       : pair->client.get();
    dest->Send(encoded.substr(0, encoded.size() / 2));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.kills;
    }
    ClosePair(pair);
    return;
  }

  if (IsDataFrame(frame.type)) {
    if (NextDouble() < options_.drop_prob) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_dropped;
      return;
    }
    if (options_.delay_prob > 0.0 && NextDouble() < options_.delay_prob) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.frames_delayed;
      }
      const int client_fd = pair->client_fd;
      loop_.AddTimer(options_.delay_s, [this, client_fd, from_client,
                                        encoded = std::move(encoded)]() {
        auto it = pairs_.find(client_fd);
        if (it == pairs_.end()) return;
        DeliverEncoded(it->second.get(), from_client, encoded);
      });
      return;
    }
    if (options_.reorder_prob > 0.0 && NextDouble() < options_.reorder_prob) {
      // Hold this frame; it goes out right AFTER the next one.
      std::string& held = from_client ? pair->held_to_upstream
                                      : pair->held_to_client;
      if (held.empty()) {
        held = std::move(encoded);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.frames_reordered;
        return;
      }
    }
  }

  const int client_fd = pair->client_fd;
  DeliverEncoded(pair, from_client, std::move(encoded));
  if (pairs_.find(client_fd) == pairs_.end()) return;
  std::string& held = from_client ? pair->held_to_upstream
                                  : pair->held_to_client;
  if (!held.empty()) {
    std::string release = std::move(held);
    held.clear();
    DeliverEncoded(pair, from_client, std::move(release));
  }
}

void ChaosProxy::DeliverEncoded(Pair* pair, bool from_client,
                                std::string encoded) {
  BufferedSocket* dest = from_client ? pair->upstream.get()
                                     : pair->client.get();
  dest->Send(std::move(encoded));
}

}  // namespace scec::net
