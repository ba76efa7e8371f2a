// SPDX-License-Identifier: MIT

#include "net/scecd.h"

#include <unistd.h>

#include <span>
#include <utility>

#include "common/check.h"
#include "common/serde.h"
#include "linalg/matrix_ops.h"
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

ScecDaemon::ScecDaemon(ScecdOptions options) : options_(options) {}

ScecDaemon::~ScecDaemon() { Stop(); }

Status ScecDaemon::Start() {
  SCEC_CHECK(!started_);
  Result<int> listen = ListenTcp(options_.port, &port_);
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  // Registering before Run() is safe: the loop is not polling yet.
  loop_.WatchFd(listen_fd_, /*want_read=*/true, /*want_write=*/false,
                [this](uint32_t) { HandleAccept(); });
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

void ScecDaemon::SetBehavior(Behavior behavior, double delay_s) {
  behavior_.store(static_cast<int>(behavior));
  behavior_delay_s_.store(delay_s);
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
  auto share_it = shares_.find(query.share_id);
  if (share_it == shares_.end() ||
      query.x.size() != share_it->second.cols()) {
    RpcErrorMsg err;
    err.rpc_id = query.rpc_id;
    err.code = static_cast<uint8_t>(NetError::kProtocol);
    err.message = share_it == shares_.end() ? "unknown share id"
                                            : "query length mismatch";
    conn->socket->Send(EncodeFrame(WireType::kRpcError, err.Encode()));
    return;
  }
  ResponseMsg response;
  response.rpc_id = query.rpc_id;
  response.values.resize(share_it->second.rows());
  MatVecInto(share_it->second, std::span<const double>(query.x),
             std::span<double>(response.values));
  const auto behavior = static_cast<Behavior>(behavior_.load());
  if (behavior == Behavior::kCorrupt && !response.values.empty()) {
    response.values[0] += 1.0;  // Byzantine lie; caught by Freivalds digests
  }
  const uint64_t rows = response.values.size();
  const uint64_t l = query.x.size();
  queries_served_.fetch_add(1);
  mults_.fetch_add(rows * l);
  adds_.fetch_add(rows * (l - 1));
  values_returned_.fetch_add(rows);
  ScecdMetrics::Get().queries.Increment();
  conn->socket->Send(EncodeFrame(WireType::kResponse, response.Encode()));
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
      ack.shares_held = shares_.size();
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
      // The values' one copy: frame buffer straight into the matrix. A
      // restaged share id (a restarted coordinator numbers its shares
      // afresh) overwrites the matrix it replaces when the shape matches.
      Matrix<double>& rows = shares_[share->share_id];
      if (rows.rows() != share->rows || rows.cols() != share->cols) {
        rows = Matrix<double>(share->rows, share->cols);
      }
      SCEC_CHECK(BinaryReader(share->values).ReadDoubles(rows.Data()).ok());
      shares_held_.store(shares_.size());
      staged_values_.fetch_add(rows.size());
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
      const auto behavior = static_cast<Behavior>(behavior_.load());
      if (behavior == Behavior::kSilent) {
        return;  // accept and drop: the coordinator's deadline must fire
      }
      if (behavior == Behavior::kDelay) {
        const double delay = behavior_delay_s_.load();
        const int fd = conn->fd;
        QueryMsg q = std::move(*query);
        loop_.AddTimer(delay, [this, fd, q = std::move(q)]() {
          auto it = connections_.find(fd);
          if (it == connections_.end()) return;  // connection died meanwhile
          AnswerQuery(it->second.get(), q);
        });
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
