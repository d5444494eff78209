#include "net/net_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstring>

#include "durability/wal.h"
#include "exec/thread_pool.h"

namespace graphlog::net {

namespace {

constexpr char kNetAccept[] = "net.accept";
constexpr char kNetRead[] = "net.read";
constexpr char kNetWrite[] = "net.write";

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle

NetServer::NetServer(Server* server, NetServerOptions opts)
    : server_(server), opts_(opts) {
  if (opts_.metrics != nullptr) {
    m_connections_ = opts_.metrics->gauge("net.connections");
    m_accepted_ = opts_.metrics->counter("net.accepted");
    m_rejected_ = opts_.metrics->counter("net.rejected");
    m_bytes_in_ = opts_.metrics->counter("net.bytes_in");
    m_bytes_out_ = opts_.metrics->counter("net.bytes_out");
    m_requests_active_ = opts_.metrics->gauge("net.requests_active");
    m_request_ns_ = opts_.metrics->histogram("net.request_ns");
  }
}

Result<std::unique_ptr<NetServer>> NetServer::Start(Server* server,
                                                    NetServerOptions opts) {
  if (server == nullptr) {
    return Status::InvalidArgument("NetServer::Start requires a Server");
  }
  std::unique_ptr<NetServer> ns(new NetServer(server, opts));
  GRAPHLOG_RETURN_NOT_OK(ns->Listen());
  ns->acceptor_ = std::thread([raw = ns.get()] { raw->AcceptLoop(); });
  return ns;
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      opts_.bind_any ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::Internal(
        std::string("bind(port ") + std::to_string(opts_.port) +
        ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, opts_.accept_backlog) < 0) {
    const Status st = Status::Internal(std::string("listen() failed: ") +
                                       std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const Status st = Status::Internal(std::string("getsockname() failed: ") +
                                       std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

void NetServer::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the acceptor out of accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Cancel in-flight work and force every handler out of recv().
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->cancel.Cancel();
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void NetServer::ReapFinished() {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

// ---------------------------------------------------------------------------
// Accept loop + connection admission

void NetServer::AcceptLoop() {
  while (!stopped_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopped_.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure (ECONNABORTED etc.)
    }
    if (stopped_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    ReapFinished();

    if (opts_.faults != nullptr) {
      const Status f = opts_.faults->Hit(kNetAccept);
      if (!f.ok()) {
        // Count before answering: a client that observes the refusal
        // must find it already reflected in rejected()/net.rejected.
        rejected_count_.fetch_add(1, std::memory_order_relaxed);
        if (m_rejected_ != nullptr) m_rejected_->Increment();
        SendFrame(fd, ErrorFrame(f), m_bytes_out_);
        ::close(fd);
        continue;
      }
    }

    // Connection-level shedding: deterministic, bounded, never queued.
    const size_t cur = active_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (opts_.max_connections != 0 && cur > opts_.max_connections) {
      active_.fetch_sub(1, std::memory_order_acq_rel);
      const Status shed = Status::Overloaded(
          "connection limit (" + std::to_string(opts_.max_connections) +
          ") reached; retry after " + std::to_string(opts_.retry_after_ms) +
          "ms");
      rejected_count_.fetch_add(1, std::memory_order_relaxed);
      if (m_rejected_ != nullptr) m_rejected_->Increment();
      SendFrame(fd, ErrorFrame(shed, opts_.retry_after_ms), m_bytes_out_);
      ::close(fd);
      continue;
    }
    if (m_connections_ != nullptr) m_connections_->Add(1);
    if (m_accepted_ != nullptr) m_accepted_->Increment();

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { HandleConnection(raw); });
  }
}

// ---------------------------------------------------------------------------
// Per-connection handler

Frame NetServer::ErrorFrame(const Status& s, uint32_t retry_after_ms) const {
  Frame f;
  f.type = MsgType::kError;
  EncodeError(StatusToWireError(s, retry_after_ms), &f.body);
  return f;
}

void NetServer::HandleConnection(Conn* conn) {
  std::unique_ptr<Session> session;

  // Handshake: the first frame must be a compatible kHello.
  bool handshaken = false;
  {
    Result<Frame> first = RecvFrame(conn->fd, m_bytes_in_);
    if (first.ok() && first->type == MsgType::kHello) {
      WireHello hello;
      const Status st = DecodeHello(first->body, &hello);
      if (!st.ok()) {
        SendFrame(conn->fd, ErrorFrame(st), m_bytes_out_);
      } else if (hello.version != kProtocolVersion) {
        SendFrame(conn->fd,
                  ErrorFrame(Status::Unsupported(
                      "protocol version " + std::to_string(hello.version) +
                      " (this server speaks " +
                      std::to_string(kProtocolVersion) + ")")),
                  m_bytes_out_);
      } else {
        Frame ok;
        ok.type = MsgType::kHelloOk;
        EncodeHello(WireHello{kProtocolVersion}, &ok.body);
        handshaken = SendFrame(conn->fd, ok, m_bytes_out_).ok();
      }
    } else if (first.ok()) {
      SendFrame(conn->fd,
                ErrorFrame(Status::InvalidArgument(
                    "expected a hello frame to open the connection")),
                m_bytes_out_);
    } else if (!IsCleanClose(first.status())) {
      SendFrame(conn->fd, ErrorFrame(first.status()), m_bytes_out_);
    }
  }

  while (handshaken && !stopped_.load(std::memory_order_acquire) &&
         !conn->cancel.cancelled()) {
    if (opts_.faults != nullptr &&
        !opts_.faults->Hit(kNetRead, &conn->cancel).ok()) {
      break;  // injected read failure: drop the connection
    }
    Result<Frame> req = RecvFrame(conn->fd, m_bytes_in_);
    if (!req.ok()) {
      // Protocol errors get one best-effort error frame; a clean close
      // or a torn stream just ends the connection.
      if (!IsCleanClose(req.status())) {
        SendFrame(conn->fd, ErrorFrame(req.status()), m_bytes_out_);
      }
      break;
    }

    const uint64_t t0 = NowNanos();
    bool close_after = false;
    Frame resp = Dispatch(*req, conn, &session, &close_after);
    if (m_request_ns_ != nullptr) {
      m_request_ns_->Observe(static_cast<int64_t>(NowNanos() - t0));
    }

    if (opts_.faults != nullptr &&
        !opts_.faults->Hit(kNetWrite, &conn->cancel).ok()) {
      break;  // injected write failure: client sees a dropped connection
    }
    if (!SendFrame(conn->fd, resp, m_bytes_out_).ok()) break;
    if (close_after) break;
  }

  // The session (and its private database) dies with its connection.
  session.reset();
  ::shutdown(conn->fd, SHUT_RDWR);
  active_.fetch_sub(1, std::memory_order_acq_rel);
  if (m_connections_ != nullptr) m_connections_->Add(-1);
  conn->done.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Request dispatch

Frame NetServer::Dispatch(const Frame& req, Conn* conn,
                          std::unique_ptr<Session>* session,
                          bool* close_after) {
  switch (req.type) {
    case MsgType::kPing: {
      Frame resp;
      resp.type = MsgType::kPong;
      return resp;
    }

    case MsgType::kOpenSession: {
      if (*session != nullptr) {
        return ErrorFrame(Status::AlreadyExists(
            "this connection already has session '" + (*session)->name() +
            "'"));
      }
      WireSessionOpen open;
      Status st = DecodeSessionOpen(req.body, &open);
      if (!st.ok()) {
        *close_after = true;
        return ErrorFrame(st);
      }
      SessionOptions sopts;
      sopts.name = open.name;
      sopts.budget = open.budget.any() ? open.budget : opts_.default_budget;
      sopts.deadline_ms =
          open.deadline_ms != 0 ? open.deadline_ms : opts_.default_deadline_ms;
      Result<std::unique_ptr<Session>> opened =
          server_->OpenSession(std::move(sopts));
      if (!opened.ok()) return ErrorFrame(opened.status());
      *session = std::move(*opened);
      Frame resp;
      resp.type = MsgType::kSessionOpened;
      EncodeSessionInfo(
          WireSessionInfo{(*session)->name(), (*session)->epoch()},
          &resp.body);
      return resp;
    }

    case MsgType::kQuery: {
      if (*session == nullptr) {
        return ErrorFrame(Status::InvalidArgument(
            "no session on this connection; open one first"));
      }
      WireQuery q;
      Status st = DecodeQuery(req.body, &q);
      if (!st.ok()) {
        *close_after = true;
        return ErrorFrame(st);
      }
      // Query-level shedding: bounded in-flight work, shed past the cap.
      const size_t inflight =
          inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (opts_.max_inflight_queries != 0 &&
          inflight > opts_.max_inflight_queries) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        rejected_count_.fetch_add(1, std::memory_order_relaxed);
        if (m_rejected_ != nullptr) m_rejected_->Increment();
        return ErrorFrame(
            Status::Overloaded(
                "query limit (" +
                std::to_string(opts_.max_inflight_queries) +
                ") in flight; retry after " +
                std::to_string(opts_.retry_after_ms) + "ms"),
            opts_.retry_after_ms);
      }
      if (m_requests_active_ != nullptr) m_requests_active_->Add(1);

      QueryRequest qr = q.language == 1 ? QueryRequest::Datalog(q.text)
                                        : QueryRequest::GraphLog(q.text);
      // Lanes are OS threads: a remote client gets at most one per core.
      // Answers are bit-identical across thread counts, so the clamp
      // changes no result.
      static const unsigned kCores = exec::ThreadPool::ResolveParallelism(0);
      qr.options.eval.num_threads =
          std::clamp<uint32_t>(q.num_threads, 1, kCores);
      qr.options.translation.specialize_bound_closures =
          q.specialize_bound_closures;
      qr.options.observability.explain = q.explain;

      gov::GovernorContext ctx;
      ctx.token = conn->cancel;
      ctx.budget = q.budget.any() ? q.budget : opts_.default_budget;
      const uint64_t deadline_ms =
          q.deadline_ms != 0 ? q.deadline_ms : opts_.default_deadline_ms;
      if (deadline_ms != 0) ctx.deadline = gov::Deadline::AfterMillis(deadline_ms);
      ctx.faults = opts_.faults;
      qr.options.eval.governor = &ctx;

      Result<QueryResponse> run = (*session)->Run(std::move(qr));

      if (m_requests_active_ != nullptr) m_requests_active_->Add(-1);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);

      if (!run.ok()) return ErrorFrame(run.status());
      WireQueryResult out;
      out.tuples_derived = run->stats.datalog.tuples_derived;
      out.graphs_translated = run->stats.graphs_translated;
      out.graphs_summarized = run->stats.graphs_summarized;
      out.result_tuples = run->stats.result_tuples;
      out.epoch = (*session)->epoch();
      out.truncated = run->truncated;
      out.cache_hit = run->cache_hit;
      out.served_from_view = run->served_from_view;
      out.truncated_by = run->truncated_by;
      out.explain = run->explain;
      Frame resp;
      resp.type = MsgType::kQueryResult;
      EncodeQueryResult(out, &resp.body);
      return resp;
    }

    case MsgType::kApplyBatch: {
      if (*session == nullptr) {
        return ErrorFrame(Status::InvalidArgument(
            "no session on this connection; open one first"));
      }
      WriteBatch batch;
      std::vector<std::string> files;
      Status st = durability::BatchCodec::Decode(req.body, &batch, &files);
      if (!st.ok()) {
        *close_after = true;
        return ErrorFrame(st);
      }
      if (WireBatchAccess::HasLoadFile(batch) || !files.empty()) {
        // A remote path name must never be read on this filesystem; the
        // client captures file bytes at its end (protocol.h).
        return ErrorFrame(Status::InvalidArgument(
            "wire batches must not carry load-file ops; the client "
            "captures file contents as facts"));
      }
      const size_t inflight =
          inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (opts_.max_inflight_queries != 0 &&
          inflight > opts_.max_inflight_queries) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        rejected_count_.fetch_add(1, std::memory_order_relaxed);
        if (m_rejected_ != nullptr) m_rejected_->Increment();
        return ErrorFrame(
            Status::Overloaded(
                "query limit (" +
                std::to_string(opts_.max_inflight_queries) +
                ") in flight; retry after " +
                std::to_string(opts_.retry_after_ms) + "ms"),
            opts_.retry_after_ms);
      }
      if (m_requests_active_ != nullptr) m_requests_active_->Add(1);

      gov::GovernorContext ctx;
      ctx.token = conn->cancel;
      ctx.budget = opts_.default_budget;
      if (opts_.default_deadline_ms != 0) {
        ctx.deadline = gov::Deadline::AfterMillis(opts_.default_deadline_ms);
      }
      ctx.faults = opts_.faults;

      Result<size_t> applied = (*session)->Apply(batch, &ctx);

      if (m_requests_active_ != nullptr) m_requests_active_->Add(-1);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);

      if (!applied.ok()) return ErrorFrame(applied.status());
      Frame resp;
      resp.type = MsgType::kApplyResult;
      EncodeApplyResult(WireApplyResult{*applied, (*session)->epoch()},
                        &resp.body);
      return resp;
    }

    case MsgType::kRefresh: {
      if (*session == nullptr) {
        return ErrorFrame(Status::InvalidArgument(
            "no session on this connection; open one first"));
      }
      const Status st = (*session)->Refresh();
      if (!st.ok()) return ErrorFrame(st);
      Frame resp;
      resp.type = MsgType::kRefreshed;
      EncodeSessionInfo(
          WireSessionInfo{(*session)->name(), (*session)->epoch()},
          &resp.body);
      return resp;
    }

    case MsgType::kFetchRelation: {
      if (*session == nullptr) {
        return ErrorFrame(Status::InvalidArgument(
            "no session on this connection; open one first"));
      }
      Cursor c{req.body};
      std::string name;
      if (!c.GetStr(&name) || !c.done()) {
        *close_after = true;
        return ErrorFrame(
            Status::InvalidArgument("malformed fetch-relation body"));
      }
      storage::Database& db = (*session)->database();
      const Symbol sym = db.symbols().Lookup(name);
      if (sym == kNoSymbol || db.Find(sym) == nullptr) {
        return ErrorFrame(
            Status::NotFound("relation '" + name + "' does not exist"));
      }
      Frame resp;
      resp.type = MsgType::kRelationData;
      PutStr(&resp.body, db.RelationToString(sym));
      return resp;
    }

    case MsgType::kListRelations: {
      if (*session == nullptr) {
        return ErrorFrame(Status::InvalidArgument(
            "no session on this connection; open one first"));
      }
      const storage::Database& db = (*session)->database();
      std::vector<WireRelationInfo> infos;
      for (const auto& [sym, rel] : db.relations()) {
        WireRelationInfo info;
        info.name = std::string(db.symbols().name(sym));
        info.arity = static_cast<uint32_t>(rel.arity());
        info.rows = rel.size();
        infos.push_back(std::move(info));
      }
      Frame resp;
      resp.type = MsgType::kRelationList;
      EncodeRelationList(infos, &resp.body);
      return resp;
    }

    case MsgType::kCloseSession: {
      session->reset();
      Frame resp;
      resp.type = MsgType::kSessionClosed;
      return resp;
    }

    default: {
      // Responses (kHelloOk, kQueryResult, ...) and a second kHello are
      // not valid requests.
      *close_after = true;
      return ErrorFrame(Status::InvalidArgument(
          "frame type " + std::to_string(static_cast<int>(req.type)) +
          " is not a request"));
    }
  }
}

}  // namespace graphlog::net
