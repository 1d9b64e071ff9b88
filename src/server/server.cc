#include "server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "engine/vector/column_batch.h"
#include "exec/thread_pool.h"
#include "lineage/compile/prob_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/socket.h"
#include "storage/batch_codec.h"
#include "storage/bytes.h"
#include "tp/tp_relation.h"

namespace tpdb::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Wire-server metrics: admission, traffic volume, and the per-request
/// latency split between pool queue wait and actual execution.
struct ServerMetrics {
  obs::Gauge* active_connections = obs::MetricsRegistry::Default().gauge(
      "tpdb_server_active_connections", "server",
      "Currently open client connections.");
  obs::Counter* connections = obs::MetricsRegistry::Default().counter(
      "tpdb_server_connections_total", "server",
      "Client connections accepted.");
  obs::Counter* conn_rejects = obs::MetricsRegistry::Default().counter(
      "tpdb_server_conn_rejects_total", "server",
      "Connections rejected at accept (admission control).");
  obs::Counter* query_rejects = obs::MetricsRegistry::Default().counter(
      "tpdb_server_query_rejects_total", "server",
      "Queries rejected by admission control or shutdown.");
  obs::Counter* requests = obs::MetricsRegistry::Default().counter(
      "tpdb_server_requests_total", "server",
      "Query/Prepare/Explain/Append/Trace requests dispatched to the pool.");
  obs::Counter* protocol_errors = obs::MetricsRegistry::Default().counter(
      "tpdb_server_protocol_errors_total", "server",
      "Malformed frames, bad handshakes and CRC mismatches.");
  obs::Counter* bytes_received = obs::MetricsRegistry::Default().counter(
      "tpdb_server_bytes_received_total", "server",
      "Bytes read off client sockets.");
  obs::Counter* bytes_sent = obs::MetricsRegistry::Default().counter(
      "tpdb_server_bytes_sent_total", "server",
      "Bytes written to client sockets.");
  obs::Histogram* queue_wait_us = obs::MetricsRegistry::Default().histogram(
      "tpdb_server_queue_wait_us", "server",
      "Dispatch-to-worker-pickup wait in microseconds.");
  obs::Histogram* execute_us = obs::MetricsRegistry::Default().histogram(
      "tpdb_server_execute_us", "server",
      "Worker-side request execution time in microseconds.");

  static const ServerMetrics& Get() {
    static const ServerMetrics m;
    return m;
  }
};

/// Sentinel epoll ids of the two non-connection fds.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

// Every result carries the shared kProbColumn ("_prob") probability column
// (lineage formulas stay server-side; the client sees Pr[λ] instead).

/// Rough in-memory footprint of a row, for per-session accounting.
size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row);
  for (const Datum& d : row) {
    bytes += sizeof(Datum);
    if (d.type() == DatumType::kString) bytes += d.AsString().size();
  }
  return bytes;
}

}  // namespace

/// A materialized query result in wire shape: the flattened fact columns
/// plus _ts/_te and the exact tuple probability.
struct WireResult {
  Schema schema;
  std::vector<Row> rows;
  size_t approx_bytes = 0;
};

/// What a pool worker hands back to the reactor.
struct QueryOutcome {
  uint64_t query_id = 0;
  MsgType kind = MsgType::kQuery;
  Status status;
  std::shared_ptr<WireResult> result;  // kQuery, on success
  std::string text;                    // kPrepare / kExplain, on success
  uint64_t appended_rows = 0;          // kAppend, on success
};

/// Per-connection state. Every field except the mailbox (`mu`/`outcome`)
/// and `cancel` is owned by the reactor thread; a pool worker touches only
/// those two and the session (one query at a time, so never concurrently
/// with another worker).
struct Connection {
  enum class State { kHandshake, kReady, kExecuting, kStreaming };

  Connection(uint64_t id_in, int fd_in, size_t max_frame_bytes,
             TPDatabase* db, const SessionOptions& session_options)
      : id(id_in),
        fd(fd_in),
        reader(max_frame_bytes),
        session(db, session_options) {}

  const uint64_t id;
  int fd;
  State state = State::kHandshake;
  FrameReader reader;
  Session session;

  std::string outbuf;
  size_t outoff = 0;
  bool want_close = false;
  bool closed = false;
  uint32_t epoll_mask = 0;

  // Streaming cursor (reactor-only).
  std::shared_ptr<WireResult> result;
  size_t next_row = 0;
  uint64_t query_id = 0;

  /// Set by the reactor on a matching Cancel frame; read by the worker (to
  /// skip execution of still-queued queries) and by the stream pump.
  std::atomic<bool> cancel{false};

  // Mailbox: a worker deposits, the reactor collects after a wake.
  std::mutex mu;
  std::unique_ptr<QueryOutcome> outcome;

  size_t pending_out() const { return outbuf.size() - outoff; }
};

std::string ServerStats::ToString() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "server:\n"
      "  uptime               %.1f s\n"
      "  connections          %llu active, %llu accepted, %llu rejected\n"
      "  handshakes ok        %llu\n"
      "  queries              %llu active, %llu ok, %llu failed, "
      "%llu rejected, %llu cancelled\n"
      "  ready queue depth    %llu\n"
      "  batches sent         %llu\n"
      "  bytes                %llu sent, %llu received\n"
      "  protocol errors      %llu\n",
      uptime_seconds, static_cast<unsigned long long>(active_connections),
      static_cast<unsigned long long>(connections_accepted),
      static_cast<unsigned long long>(connections_rejected),
      static_cast<unsigned long long>(handshakes_ok),
      static_cast<unsigned long long>(active_queries),
      static_cast<unsigned long long>(queries_ok),
      static_cast<unsigned long long>(queries_failed),
      static_cast<unsigned long long>(queries_rejected),
      static_cast<unsigned long long>(queries_cancelled),
      static_cast<unsigned long long>(ready_queue_depth),
      static_cast<unsigned long long>(batches_sent),
      static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(protocol_errors));
  return buf;
}

Server::Server(TPDatabase* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  TPDB_CHECK(db_ != nullptr);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if constexpr (std::endian::native != std::endian::little)
    return Status::Internal(
        "the wire protocol requires a little-endian host (like the "
        "snapshot format)");
  if (started_) return Status::Internal("server already started");

  StatusOr<int> listen = ListenOn(options_.host, options_.port, 128);
  if (!listen.ok()) return listen.status();
  listen_fd_ = *listen;
  StatusOr<uint16_t> port = LocalPort(listen_fd_);
  if (!port.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = *port;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status st =
        Status::IOError(std::string("epoll/eventfd: ") + std::strerror(errno));
    CloseFd(listen_fd_);
    CloseFd(epoll_fd_);
    CloseFd(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  shutting_down_.store(false);
  drain_started_ = false;
  started_ = true;
  start_time_ = Clock::now();
  reactor_ = std::thread(&Server::ReactorLoop, this);
  TPDB_LOG(INFO) << "server listening on " << options_.host << ":" << port_;
  return Status::OK();
}

void Server::Shutdown() {
  if (!started_) return;
  shutting_down_.store(true);
  Wake();
  reactor_.join();
  // The reactor exits only when every connection is gone; wait for any
  // straggler workers (their deposits onto closed connections are ignored)
  // so no pool task outlives this object.
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [&] { return inflight_ == 0; });
  }
  CloseFd(epoll_fd_);
  CloseFd(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  started_ = false;
  TPDB_LOG(INFO) << "server on port " << port_ << " shut down";
}

ServerStats Server::Stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats = stats_;
  }
  stats.active_connections = active_conns_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    stats.active_queries = inflight_;
  }
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    stats.ready_queue_depth = ready_.size();
  }
  if (started_)
    stats.uptime_seconds =
        std::chrono::duration<double>(Clock::now() - start_time_).count();
  return stats;
}

void Server::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
}

void Server::ReactorLoop() {
  std::vector<epoll_event> events(64);
  Clock::time_point grace_deadline = Clock::time_point::max();
  for (;;) {
    if (shutting_down_.load(std::memory_order_relaxed) && !drain_started_) {
      BeginShutdownDrain();
      grace_deadline = Clock::now() + std::chrono::milliseconds(
                                          options_.shutdown_grace_ms);
    }
    if (drain_started_) {
      size_t inflight;
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight = inflight_;
      }
      if (conns_.empty() && inflight == 0) break;
      if (Clock::now() >= grace_deadline) {
        // Grace expired: force-close the stragglers. Workers still running
        // deposit into closed connections and are waited for in Shutdown.
        while (!conns_.empty()) CloseConn(conns_.begin()->second);
        break;
      }
    }
    const int timeout_ms = drain_started_ ? 50 : -1;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        if (!drain_started_) HandleAccept();
        continue;
      }
      if (id == kWakeId) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t rc =
            ::read(wake_fd_, &drained, sizeof(drained));
        HandleOutcomes();
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this round
      const std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      if (!conn->closed && (events[i].events & EPOLLOUT))
        HandleWritable(conn);
    }
    // A worker may have deposited between epoll wakeups.
    HandleOutcomes();
  }
}

void Server::HandleAccept() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error — try again on epoll
    }
    if (conns_.size() >= options_.max_connections) {
      // Admission: a best-effort Error frame, then close. Count the
      // rejection before sending — the send is what unblocks the client,
      // so counting after it would let a Stats() reader observe the
      // rejection with a stale counter.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_rejected;
      }
      ServerMetrics::Get().conn_rejects->Add();
      std::string out;
      AppendFrame(MsgType::kError,
                  BuildError({0, StatusCode::kResourceExhausted,
                              "connection limit of " +
                                  std::to_string(options_.max_connections) +
                                  " reached"}),
                  &out);
      [[maybe_unused]] const ssize_t rc =
          ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      CloseFd(fd);
      continue;
    }
    (void)SetNoDelay(fd).ok();
    const uint64_t id = next_conn_id_++;
    conns_.emplace(id, std::make_shared<Connection>(
                           id, fd, options_.max_frame_bytes, db_,
                           options_.session));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[id]->epoll_mask = EPOLLIN;
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().connections->Add();
    ServerMetrics::Get().active_connections->Add(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  bool peer_eof = false;
  uint64_t received = 0;
  for (;;) {
    const ssize_t rc = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (rc > 0) {
      conn->reader.Append(buf, static_cast<size_t>(rc));
      received += static_cast<uint64_t>(rc);
      continue;
    }
    if (rc == 0) {  // orderly peer shutdown — handle buffered frames first
      peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);
    return;
  }
  if (received > 0) {
    ServerMetrics::Get().bytes_received->Add(received);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_received += received;
  }
  Frame frame;
  bool have = false;
  for (;;) {
    const Status st = conn->reader.Next(&frame, &have);
    if (!st.ok()) {
      // Oversized prefix or CRC mismatch: the stream cannot be
      // resynchronized. Error frame, then close once it flushes.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      ServerMetrics::Get().protocol_errors->Add();
      SendError(conn, 0, st);
      conn->want_close = true;
      break;
    }
    if (!have) break;
    HandleFrame(conn, frame);
    if (conn->closed || conn->want_close) break;
  }
  if (peer_eof && !conn->closed) conn->want_close = true;
  if (!conn->closed) FlushOut(conn);
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const Frame& frame) {
  // -- Handshake ---------------------------------------------------------
  if (conn->state == Connection::State::kHandshake) {
    HelloMsg hello;
    Status st = frame.type == MsgType::kHello
                    ? ParseHello(frame.payload, &hello)
                    : Status::InvalidArgument(
                          "protocol error: expected Hello as first frame");
    if (st.ok() && hello.magic != kProtocolMagic)
      st = Status::InvalidArgument("protocol error: bad magic (not a tpdb "
                                   "client)");
    if (st.ok() && hello.version != kProtocolVersion)
      st = Status::InvalidArgument(
          "protocol error: unsupported protocol version " +
          std::to_string(hello.version) + " (server speaks " +
          std::to_string(kProtocolVersion) + ")");
    if (st.ok() && !options_.auth_token.empty() &&
        hello.auth_token != options_.auth_token)
      st = Status::InvalidArgument("authentication failed: bad token");
    if (!st.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      ServerMetrics::Get().protocol_errors->Add();
      SendError(conn, 0, st);
      conn->want_close = true;
      return;
    }
    AppendFrame(MsgType::kHelloOk,
                BuildHelloOk({kProtocolVersion, "tpdb server, protocol v" +
                                                    std::to_string(
                                                        kProtocolVersion)}),
                &conn->outbuf);
    conn->state = Connection::State::kReady;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.handshakes_ok;
    return;
  }

  switch (frame.type) {
    case MsgType::kQuery:
    case MsgType::kPrepare:
    case MsgType::kExplain:
    case MsgType::kTraceQuery: {
      QueryMsg msg;
      const Status st = ParseQuery(frame.payload, &msg);
      if (!st.ok()) {
        SendError(conn, 0, st);
        conn->want_close = true;
        return;
      }
      if (conn->state != Connection::State::kReady) {
        // One query at a time per connection; the connection survives.
        SendError(conn, msg.query_id,
                  Status::InvalidArgument(
                      "another query is already in flight on this session"));
        return;
      }
      DispatchQuery(conn, frame.type, msg.query_id, std::move(msg.sql));
      return;
    }
    case MsgType::kAppend: {
      AppendMsg msg;
      const Status st = ParseAppend(frame.payload, &msg);
      if (!st.ok()) {
        SendError(conn, 0, st);
        conn->want_close = true;
        return;
      }
      if (conn->state != Connection::State::kReady) {
        SendError(conn, msg.query_id,
                  Status::InvalidArgument(
                      "another query is already in flight on this session"));
        return;
      }
      DispatchAppend(conn, std::move(msg));
      return;
    }
    case MsgType::kStats: {
      StatsMsg msg;
      const Status st = ParseStats(frame.payload, &msg);
      if (!st.ok()) {
        SendError(conn, 0, st);
        conn->want_close = true;
        return;
      }
      if (conn->state != Connection::State::kReady) {
        SendError(conn, msg.query_id,
                  Status::InvalidArgument(
                      "another query is already in flight on this session"));
        return;
      }
      // Cheap enough to answer from the reactor: a shared catalog lock and
      // a walk over the relations' counters, no query execution.
      AppendFrame(MsgType::kPlanText,
                  BuildPlanText({msg.query_id, db_->Stats().ToString() +
                                                   Stats().ToString()}),
                  &conn->outbuf);
      return;
    }
    case MsgType::kMetrics: {
      MetricsMsg msg;
      const Status st = ParseMetrics(frame.payload, &msg);
      if (!st.ok()) {
        SendError(conn, 0, st);
        conn->want_close = true;
        return;
      }
      if (conn->state != Connection::State::kReady) {
        SendError(conn, msg.query_id,
                  Status::InvalidArgument(
                      "another query is already in flight on this session"));
        return;
      }
      // Rendering walks the registry under its mutex and merges counter
      // shards — microseconds of work, answered inline like kStats.
      std::string text =
          msg.format == MetricsFormat::kJson
              ? obs::MetricsRegistry::Default().RenderJson()
              : obs::MetricsRegistry::Default().RenderPrometheus();
      AppendFrame(MsgType::kPlanText,
                  BuildPlanText({msg.query_id, std::move(text)}),
                  &conn->outbuf);
      return;
    }
    case MsgType::kCancel: {
      CancelMsg msg;
      if (!ParseCancel(frame.payload, &msg).ok()) return;  // advisory
      if ((conn->state == Connection::State::kExecuting ||
           conn->state == Connection::State::kStreaming) &&
          msg.query_id == conn->query_id)
        conn->cancel.store(true);
      return;
    }
    case MsgType::kClose:
      CloseAfterFlush(conn, "bye");
      return;
    default: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      ServerMetrics::Get().protocol_errors->Add();
      SendError(conn, 0,
                Status::InvalidArgument(
                    "protocol error: unexpected message type " +
                    std::to_string(static_cast<int>(frame.type))));
      conn->want_close = true;
      return;
    }
  }
}

bool Server::AdmitWork(const std::shared_ptr<Connection>& conn,
                       uint64_t query_id) {
  if (shutting_down_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries_rejected;
    }
    ServerMetrics::Get().query_rejects->Add();
    SendError(conn, query_id,
              Status::ResourceExhausted("server is shutting down"));
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (options_.max_concurrent_queries != 0 &&
        inflight_ >= options_.max_concurrent_queries) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.queries_rejected;
      }
      ServerMetrics::Get().query_rejects->Add();
      SendError(conn, query_id,
                Status::ResourceExhausted(
                    "concurrent query limit of " +
                    std::to_string(options_.max_concurrent_queries) +
                    " reached"));
      return false;
    }
    ++inflight_;
  }
  conn->state = Connection::State::kExecuting;
  conn->query_id = query_id;
  conn->cancel.store(false);
  ServerMetrics::Get().requests->Add();
  return true;
}

void Server::DispatchQuery(const std::shared_ptr<Connection>& conn,
                           MsgType kind, uint64_t query_id, std::string sql) {
  if (!AdmitWork(conn, query_id)) return;
  const uint64_t dispatch_us = obs::NowUs();
  ThreadPool::Default()->Submit(
      [this, conn, kind, query_id, dispatch_us, sql = std::move(sql)]() mutable {
        ServerMetrics::Get().queue_wait_us->Record(obs::NowUs() - dispatch_us);
        const obs::ScopedLatencyTimer timer(ServerMetrics::Get().execute_us);
        RunQuery(conn, kind, query_id, std::move(sql));
      });
}

void Server::DispatchAppend(const std::shared_ptr<Connection>& conn,
                            AppendMsg msg) {
  if (!AdmitWork(conn, msg.query_id)) return;
  const uint64_t dispatch_us = obs::NowUs();
  ThreadPool::Default()->Submit(
      [this, conn, dispatch_us, msg = std::move(msg)]() mutable {
        ServerMetrics::Get().queue_wait_us->Record(obs::NowUs() - dispatch_us);
        const obs::ScopedLatencyTimer timer(ServerMetrics::Get().execute_us);
        RunAppend(conn, std::move(msg));
      });
}

void Server::RunQuery(std::shared_ptr<Connection> conn, MsgType kind,
                      uint64_t query_id, std::string sql) {
  auto outcome = std::make_unique<QueryOutcome>();
  outcome->query_id = query_id;
  outcome->kind = kind;

  if (conn->cancel.load()) {
    outcome->status = Status::Internal("query cancelled by client");
  } else if (kind == MsgType::kPrepare) {
    // Parse + plan only: validates the statement and returns the logical
    // tree without touching any data.
    StatusOr<LogicalPlan> plan = conn->session.database()->Plan(sql);
    if (plan.ok())
      outcome->text = plan->ToString();
    else
      outcome->status = plan.status();
  } else if (kind == MsgType::kExplain) {
    StatusOr<std::string> text = conn->session.Explain(sql);
    if (text.ok())
      outcome->text = std::move(*text);
    else
      outcome->status = text.status();
  } else if (kind == MsgType::kTraceQuery) {
    // Traced execution: the client's query id becomes the trace id, and
    // the reply is the chrome://tracing artifact with the Explain
    // rendering embedded (both views come from the same NodeStats).
    StatusOr<Session::TraceResult> traced =
        conn->session.Trace(sql, query_id);
    if (traced.ok())
      outcome->text = traced->trace.ToChromeJson(traced->physical_plan);
    else
      outcome->status = traced.status();
  } else {
    StatusOr<TPRelation> result = conn->session.Query(sql);
    if (!result.ok()) {
      outcome->status = result.status();
    } else {
      auto wire = std::make_shared<WireResult>();
      wire->schema = result->fact_schema();
      wire->schema.AddColumn({kTsColumn, DatumType::kInt64});
      wire->schema.AddColumn({kTeColumn, DatumType::kInt64});
      wire->schema.AddColumn({kProbColumn, DatumType::kDouble});
      // One evaluator per result: memo, decomposition and Shannon expansion
      // within the session's budget, and sampling only past it.
      ProbabilityEvaluator evaluator(
          result->manager(), BaseProbOptions(conn->session.options()));
      wire->rows.reserve(result->size());
      const size_t num_cols = wire->schema.num_columns();
      for (const TPTuple& t : result->tuples()) {
        Row row;
        row.reserve(num_cols);
        for (const Datum& d : t.fact) row.push_back(d);
        row.push_back(Datum(static_cast<int64_t>(t.interval.start)));
        row.push_back(Datum(static_cast<int64_t>(t.interval.end)));
        row.push_back(Datum(evaluator.Probability(t.lineage)));
        wire->approx_bytes += ApproxRowBytes(row);
        wire->rows.push_back(std::move(row));
      }
      if (options_.per_session_result_bytes != 0 &&
          wire->approx_bytes > options_.per_session_result_bytes) {
        outcome->status = Status::ResourceExhausted(
            "result of ~" + std::to_string(wire->approx_bytes) +
            " bytes exceeds the per-session memory limit of " +
            std::to_string(options_.per_session_result_bytes) + " bytes");
      } else {
        outcome->result = std::move(wire);
      }
    }
  }

  DepositOutcome(conn, std::move(outcome));
}

void Server::RunAppend(std::shared_ptr<Connection> conn, AppendMsg msg) {
  auto outcome = std::make_unique<QueryOutcome>();
  outcome->query_id = msg.query_id;
  outcome->kind = MsgType::kAppend;

  if (conn->cancel.load()) {
    outcome->status = Status::Internal("query cancelled by client");
  } else {
    std::vector<TPDatabase::AppendRow> rows;
    rows.reserve(msg.rows.size());
    for (AppendRowMsg& row : msg.rows)
      rows.push_back({std::move(row.fact), Interval(row.ts, row.te), row.prob,
                      std::move(row.var_name)});
    outcome->status =
        conn->session.database()->Append(msg.relation, std::move(rows));
    if (outcome->status.ok()) outcome->appended_rows = msg.rows.size();
  }
  DepositOutcome(conn, std::move(outcome));
}

void Server::DepositOutcome(const std::shared_ptr<Connection>& conn,
                            std::unique_ptr<QueryOutcome> outcome) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->outcome = std::move(outcome);
  }
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready_.push_back(conn->id);
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_;
  }
  inflight_cv_.notify_all();
  Wake();
}

void Server::HandleOutcomes() {
  std::vector<uint64_t> ready;
  {
    std::lock_guard<std::mutex> lock(ready_mu_);
    ready.swap(ready_);
  }
  for (const uint64_t id : ready) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // connection closed mid-query
    const std::shared_ptr<Connection> conn = it->second;
    std::unique_ptr<QueryOutcome> outcome;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      outcome = std::move(conn->outcome);
    }
    if (!outcome || conn->state != Connection::State::kExecuting) continue;

    if (!outcome->status.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        if (conn->cancel.load())
          ++stats_.queries_cancelled;
        else
          ++stats_.queries_failed;
      }
      SendError(conn, outcome->query_id, outcome->status);
      conn->state = Connection::State::kReady;
    } else if (outcome->kind == MsgType::kAppend) {
      AppendFrame(MsgType::kDone,
                  BuildDone({outcome->query_id, outcome->appended_rows}),
                  &conn->outbuf);
      conn->state = Connection::State::kReady;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries_ok;
    } else if (outcome->kind != MsgType::kQuery) {
      AppendFrame(MsgType::kPlanText,
                  BuildPlanText({outcome->query_id, std::move(outcome->text)}),
                  &conn->outbuf);
      conn->state = Connection::State::kReady;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries_ok;
    } else if (conn->cancel.load()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.queries_cancelled;
      }
      SendError(conn, outcome->query_id,
                Status::Internal("query cancelled by client"));
      conn->state = Connection::State::kReady;
    } else {
      AppendFrame(MsgType::kSchema,
                  BuildSchema({outcome->query_id, outcome->result->schema}),
                  &conn->outbuf);
      conn->result = std::move(outcome->result);
      conn->next_row = 0;
      conn->state = Connection::State::kStreaming;
    }
    if (conn->state == Connection::State::kReady && drain_started_)
      conn->want_close = true;
    FlushOut(conn);
  }
}

void Server::PumpStream(const std::shared_ptr<Connection>& conn) {
  while (conn->state == Connection::State::kStreaming &&
         conn->pending_out() < options_.send_high_watermark) {
    if (conn->cancel.load()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.queries_cancelled;
      }
      SendError(conn, conn->query_id,
                Status::Internal("query cancelled by client"));
      conn->state = Connection::State::kReady;
      conn->result.reset();
      break;
    }
    const std::vector<Row>& rows = conn->result->rows;
    if (conn->next_row >= rows.size()) {
      AppendFrame(
          MsgType::kDone,
          BuildDone({conn->query_id, static_cast<uint64_t>(rows.size())}),
          &conn->outbuf);
      conn->state = Connection::State::kReady;
      conn->result.reset();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries_ok;
      break;
    }
    const size_t end =
        std::min(conn->next_row + options_.batch_rows, rows.size());
    vec::ColumnBatch batch;
    vec::TransposeRows(rows, conn->next_row, end, &batch);
    storage::ByteWriter w;
    const Status st = storage::EncodeColumnBatch(conn->result->schema, batch,
                                                 /*ids=*/nullptr, &w);
    if (!st.ok()) {
      SendError(conn, conn->query_id, st);
      conn->state = Connection::State::kReady;
      conn->result.reset();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.queries_failed;
      break;
    }
    std::string payload = BuildBatchPrefix(conn->query_id);
    payload += w.buffer();
    AppendFrame(MsgType::kBatch, payload, &conn->outbuf);
    conn->next_row = end;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches_sent;
  }
  if (conn->state == Connection::State::kReady && drain_started_)
    conn->want_close = true;
}

void Server::HandleWritable(const std::shared_ptr<Connection>& conn) {
  FlushOut(conn);
}

void Server::FlushOut(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  for (;;) {
    while (conn->pending_out() > 0) {
      const ssize_t rc =
          ::send(conn->fd, conn->outbuf.data() + conn->outoff,
                 conn->pending_out(), MSG_NOSIGNAL);
      if (rc > 0) {
        conn->outoff += static_cast<size_t>(rc);
        ServerMetrics::Get().bytes_sent->Add(static_cast<uint64_t>(rc));
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.bytes_sent += static_cast<uint64_t>(rc);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Client is slow: stop here, EPOLLOUT resumes us. This is the
        // backpressure point — PumpStream won't encode past the watermark.
        UpdateEpoll(conn);
        return;
      }
      CloseConn(conn);  // EPIPE / ECONNRESET / ...
      return;
    }
    conn->outbuf.clear();
    conn->outoff = 0;
    if (conn->state != Connection::State::kStreaming) break;
    // Fully drained and mid-stream: encode the next window of batches.
    PumpStream(conn);
    if (conn->pending_out() == 0) break;  // pump produced nothing new
  }
  if (conn->want_close) {
    CloseConn(conn);
    return;
  }
  UpdateEpoll(conn);
}

void Server::SendError(const std::shared_ptr<Connection>& conn,
                       uint64_t query_id, const Status& status) {
  AppendFrame(MsgType::kError,
              BuildError({query_id, status.code(), status.message()}),
              &conn->outbuf);
}

void Server::CloseAfterFlush(const std::shared_ptr<Connection>& conn,
                             const std::string& goodbye_reason) {
  if (conn->closed) return;
  AppendFrame(MsgType::kGoodbye, BuildGoodbye(goodbye_reason), &conn->outbuf);
  conn->want_close = true;
  FlushOut(conn);
}

void Server::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  CloseFd(conn->fd);
  conn->fd = -1;
  conns_.erase(conn->id);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  ServerMetrics::Get().active_connections->Sub(1);
}

void Server::UpdateEpoll(const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return;
  const uint32_t mask =
      EPOLLIN | (conn->pending_out() > 0 ? EPOLLOUT : 0u);
  if (mask == conn->epoll_mask) return;
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->epoll_mask = mask;
}

void Server::BeginShutdownDrain() {
  drain_started_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  // Idle connections get an immediate Goodbye; executing/streaming ones
  // drain first (HandleOutcomes / PumpStream close them when they finish).
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [id, conn] : conns_)
    if (conn->state == Connection::State::kHandshake ||
        conn->state == Connection::State::kReady)
      idle.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : idle)
    CloseAfterFlush(conn, "server shutting down");
}

}  // namespace tpdb::server
