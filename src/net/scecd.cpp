// SPDX-License-Identifier: MIT

#include "net/scecd.h"

#include <unistd.h>

#include <span>
#include <utility>

#include "common/check.h"
#include "common/serde.h"
#include "obs/metrics.h"

namespace scec::net {
namespace {

struct ScecdMetrics {
  obs::Counter& queries;
  obs::Counter& shares;
  obs::Counter& protocol_errors;

  ScecdMetrics()
      : queries(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_daemon_queries_total")),
        shares(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_daemon_shares_total")),
        protocol_errors(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_daemon_protocol_errors_total")) {}

  static ScecdMetrics& Get() {
    static ScecdMetrics metrics;
    return metrics;
  }
};

}  // namespace

struct ScecDaemon::Connection {
  std::unique_ptr<BufferedSocket> socket;
  FrameReader reader;
  bool draining = false;
  int fd = -1;
};

ScecDaemon::ScecDaemon(ScecdOptions options)
    : options_(std::move(options)), core_(options_.daemon_id, &script_) {
  script_.SetSeed(options_.fault_seed);
  for (const sim::FaultEvent& event : options_.faults) {
    script_.Add(options_.daemon_id, event);
  }
}

ScecDaemon::~ScecDaemon() { Stop(); }

Status ScecDaemon::Start() {
  SCEC_CHECK(!started_);
  Result<int> listen = ListenTcp(options_.port, &port_);
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  // Registering before Run() is safe: the loop is not polling yet.
  loop_.WatchFd(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                [this](uint32_t) { HandleAccept(); });
  started_s_ = EventLoop::Now();
  thread_ = std::thread([this]() { loop_.Run(); });
  started_ = true;
  return Status::Ok();
}

void ScecDaemon::Stop() {
  if (!started_) return;
  loop_.Post([this]() {
    for (auto& [fd, conn] : connections_) conn->socket->Close();
    connections_.clear();
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

uint64_t ScecDaemon::shares_held() const {
  std::lock_guard<std::mutex> lock(core_mutex_);
  return core_.shares_held();
}

uint64_t ScecDaemon::queries_served() const {
  std::lock_guard<std::mutex> lock(core_mutex_);
  return queries_served_;
}

DeviceOps ScecDaemon::ops() const {
  std::lock_guard<std::mutex> lock(core_mutex_);
  return core_.ops();
}

void ScecDaemon::HandleAccept() {
  while (true) {
    Result<int> fd = AcceptTcp(listen_fd_);
    if (!fd.ok()) return;   // transient accept error: keep listening
    if (*fd < 0) return;    // drained the backlog
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    raw->fd = *fd;
    raw->socket = std::make_unique<BufferedSocket>(&loop_, *fd);
    connections_[*fd] = std::move(conn);
    raw->socket->Start(
        [this, raw](std::string_view bytes) {
          Status status = raw->reader.Feed(
              bytes, [this, raw](WireType type, std::string_view payload) {
                const int key = raw->fd;
                HandleFrame(raw, type, payload);
                // HandleFrame may close the connection (its destruction is
                // deferred, so the reader outlives this call) — re-check by
                // key, never through `raw`.
                return connections_.find(key) != connections_.end();
              });
          if (!status.ok()) {
            // Corrupt stream: poison THIS connection only.
            ScecdMetrics::Get().protocol_errors.Increment();
            CloseConnection(raw);
          }
        },
        [this, raw](NetError, const std::string&) { CloseConnection(raw); });
  }
}

void ScecDaemon::CloseConnection(Connection* conn) {
  auto it = connections_.find(conn->fd);
  if (it == connections_.end()) return;
  // This often runs from inside the connection's own data handler, whose
  // lambda storage lives in the BufferedSocket being torn down. Close stops
  // all I/O now, but destruction is deferred to the next loop tick so the
  // executing handler's captures stay valid through its return.
  std::shared_ptr<Connection> doomed{it->second.release()};
  connections_.erase(it);
  doomed->socket->Close();
  loop_.Post([doomed]() {});
}

void ScecDaemon::AnswerQuery(Connection* conn, const QueryMsg& query) {
  std::unique_lock<std::mutex> lock(core_mutex_);
  const DeviceCore::Arrival arrival = core_.Compute(
      query.share_id, query.x, EventLoop::Now() - started_s_,
      &response_.values);
  if (arrival == DeviceCore::Arrival::kUnknownShare ||
      arrival == DeviceCore::Arrival::kWrongLength) {
    lock.unlock();
    const RpcErrorMsg err{query.rpc_id,
                          static_cast<uint8_t>(NetError::kProtocol),
                          arrival == DeviceCore::Arrival::kUnknownShare
                              ? "unknown share id"
                              : "query length mismatch"};
    conn->socket->Send(EncodeFrame(WireType::kRpcError, err.Encode()));
    return;
  }
  // A missed or withheld answer is silence: the coordinator's deadline
  // must fire.
  if (arrival == DeviceCore::Arrival::kMissed ||
      !core_.Release(EventLoop::Now() - started_s_, &response_.values)) {
    return;
  }
  ++queries_served_;
  lock.unlock();
  ScecdMetrics::Get().queries.Increment();
  response_.rpc_id = query.rpc_id;
  conn->socket->Send(EncodeFrame(WireType::kResponse, response_.Encode()));
}

void ScecDaemon::HandleFrame(Connection* conn, WireType type,
                             std::string_view payload) {
  switch (type) {
    case WireType::kHello: {
      Result<HelloMsg> hello = HelloMsg::Decode(payload);
      if (!hello.ok()) {
        CloseConnection(conn);
        return;
      }
      HelloAckMsg ack;
      ack.daemon_id = options_.daemon_id;
      ack.shares_held = shares_held();
      conn->socket->Send(EncodeFrame(WireType::kHelloAck, ack.Encode()));
      return;
    }
    case WireType::kShare: {
      Result<ShareBodyView> share = ParseShareBody(payload);
      ShareAckMsg ack;
      if (!share.ok()) {
        // Typed refusal: the coordinator sees a failed staging, the daemon
        // stays up.
        ack.ok = 0;
        ack.error = share.status().message();
        conn->socket->Send(EncodeFrame(WireType::kShareAck, ack.Encode()));
        return;
      }
      // The values' one copy: frame buffer straight into the share. A
      // restaged share id (a restarted coordinator numbers its shares
      // afresh) overwrites the share it replaces.
      {
        std::lock_guard<std::mutex> lock(core_mutex_);
        const std::span<double> rows =
            core_.Stage(share->share_id, share->rows, share->cols);
        SCEC_CHECK(BinaryReader(share->values).ReadDoubles(rows).ok());
      }
      ScecdMetrics::Get().shares.Increment();
      ack.share_id = share->share_id;
      conn->socket->Send(EncodeFrame(WireType::kShareAck, ack.Encode()));
      return;
    }
    case WireType::kQuery: {
      Result<QueryMsg> query = QueryMsg::Decode(payload);
      if (!query.ok()) {
        CloseConnection(conn);
        return;
      }
      AnswerQuery(conn, *query);
      return;
    }
    case WireType::kHeartbeat: {
      // Echo the sequence so the coordinator's miss counter resets.
      conn->socket->Send(EncodeFrame(WireType::kHeartbeatAck, payload));
      return;
    }
    case WireType::kCancel:
      // At-most-once execution is the coordinator's job; a cancel for an
      // inline-computed query has nothing left to stop.
      return;
    case WireType::kDrain: {
      conn->draining = true;
      conn->socket->Send(EncodeFrame(WireType::kDrainAck, std::string()));
      return;
    }
    default:
      // A frame the daemon never expects from a client (HELLO_ACK, ...).
      ScecdMetrics::Get().protocol_errors.Increment();
      CloseConnection(conn);
      return;
  }
}

}  // namespace scec::net
