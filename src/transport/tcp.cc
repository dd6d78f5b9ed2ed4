#include "transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "common/logging.h"

namespace dema::transport {

namespace {

/// Encoded bytes a connection keeps in flight before the loop stops pulling
/// from its outbox (the outbox bound then backpressures `Send`).
constexpr size_t kWriteHighWater = 1u << 20;
/// Bytes one connection may read per loop pass before yielding (fairness;
/// level-triggered epoll re-delivers the remainder immediately).
constexpr size_t kReadBudget = 1u << 20;
/// Frames per writev call (well under IOV_MAX everywhere).
constexpr size_t kMaxIov = 64;
/// Largest accepted frame payload (corrupt length-prefix defence).
constexpr uint32_t kMaxFramePayload = 64u << 20;
/// Size of the arena blocks receive buffers are carved from. Payloads are
/// delivered as views into these blocks (zero-copy); a block is freed when
/// the loop has moved past it and no delivered message references it.
constexpr size_t kRecvBlockBytes = 256u << 10;
/// Dial-phase socket timeout and the per-connection grace period the
/// shutdown drain grants a stalled peer before abandoning its queued frames
/// (reset on write progress).
constexpr DurationUs kIoTimeoutUs = MillisUs(200);
/// Heartbeat intervals after which a sent-but-unacked frame is retransmitted
/// (recovers frames a receiver's CRC check dropped; dedup eats the repeats).
constexpr int kRetransmitHeartbeats = 4;

/// Applies the per-socket options every data connection uses: small-message
/// latency (no Nagle) and bounded blocking for the synchronous dial phase.
void ConfigureSocket(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv;
  tv.tv_sec = kIoTimeoutUs / kMicrosPerSecond;
  tv.tv_usec = kIoTimeoutUs % kMicrosPerSecond;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::NetworkError(std::string("fcntl(O_NONBLOCK) failed: ") +
                                std::strerror(errno));
  }
  return Status::OK();
}

bool IsWouldBlock(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

/// Key of the (src, dst) sequence/ack stream — the same keying the
/// in-process fabric stamps with.
uint64_t StreamKey(NodeId src, NodeId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

/// RFC 1982 serial comparison (seq numbers wrap; a 2^31 window orders them).
bool SerialGt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) > 0;
}

/// Slice `Send` waits per outbox-space poll, so a blocked sender notices
/// shutdown and a dead I/O loop promptly instead of waiting forever.
constexpr DurationUs kSendPollSliceUs = MillisUs(10);

/// Writes exactly \p n bytes on a (still blocking) dial-phase socket,
/// retrying timeout ticks until stopped.
Status WriteFull(int fd, const uint8_t* buf, size_t n,
                 const std::atomic<bool>& stop) {
  size_t sent = 0;
  while (sent < n) {
    ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && IsWouldBlock(errno)) {
      if (stop.load(std::memory_order_relaxed)) {
        return Status::NetworkError("transport stopped mid-send");
      }
      continue;
    }
    return Status::NetworkError(std::string("send failed: ") +
                                std::strerror(errno));
  }
  return Status::OK();
}

/// Resolves host:port to an IPv4 socket address.
Status Resolve(const std::string& host, uint16_t port, sockaddr_in* out) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1) {
    return Status::OK();
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::NetworkError("cannot resolve host " + host + ": " +
                                ::gai_strerror(rc));
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return Status::OK();
}

}  // namespace

Result<int> BindListenSocket(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::NetworkError(std::string("socket failed: ") +
                                std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  Status st = Resolve(host, port, &addr);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::NetworkError("bind to " + host + ":" + std::to_string(port) +
                                " failed: " + std::strerror(errno));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return Status::NetworkError(std::string("listen failed: ") +
                                std::strerror(errno));
  }
  return fd;
}

Result<uint16_t> ListenSocketPort(int fd) {
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Status::NetworkError(std::string("getsockname failed: ") +
                                std::strerror(errno));
  }
  return ntohs(bound.sin_port);
}

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)),
      owned_registry_(options_.registry == nullptr ? new obs::Registry()
                                                   : nullptr),
      registry_(options_.registry == nullptr ? owned_registry_.get()
                                             : options_.registry),
      sent_(registry_, "transport.sent"),
      recv_(registry_, "transport.recv"),
      accept_failures_to_inject_(options_.inject_accept_failures),
      jitter_rng_(static_cast<uint64_t>(::getpid()) * 2654435761u + 1),
      corrupt_rng_(options_.fault.corrupt_seed != 0
                       ? options_.fault.corrupt_seed
                       : static_cast<uint64_t>(::getpid()) * 0x9E3779B9u + 3),
      c_corrupted_total_(registry_->GetCounter("net.corrupted")),
      c_corrupted_inject_(registry_->GetCounter("net.corrupted{layer=inject}")),
      c_corrupted_recv_(registry_->GetCounter("net.corrupted{layer=tcp}")),
      c_accept_errors_(registry_->GetCounter("net.accept_errors")),
      c_outbox_full_(registry_->GetCounter("net.outbox_full")),
      c_peer_down_(registry_->GetCounter("net.peer_down")),
      c_reconnects_(registry_->GetCounter("net.reconnects")),
      c_replayed_(registry_->GetCounter("net.replayed_frames")),
      c_dup_dropped_(registry_->GetCounter("net.dup_frames_dropped")),
      c_partial_frame_drops_(
          registry_->GetCounter("net.partial_frame_drops")),
      c_heartbeats_(registry_->GetCounter("net.heartbeats")),
      c_acks_(registry_->GetCounter("net.acks")),
      c_conn_kills_(registry_->GetCounter("net.conn_kills{layer=inject}")) {
  std::sort(options_.fault.kill_conn_schedule.begin(),
            options_.fault.kill_conn_schedule.end());
}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::AddLocalNode(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = inboxes_.emplace(
      id, std::make_unique<net::Channel>(options_.inbox_capacity));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("node " + std::to_string(id) +
                                 " already hosted on this transport");
  }
  return Status::OK();
}

Status TcpTransport::AddPeer(NodeId id, const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = peers_.emplace(id, Peer{host, port});
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("peer " + std::to_string(id) +
                                 " already configured");
  }
  return Status::OK();
}

Status TcpTransport::EnsureLoopStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  if (loop_started_) return Status::OK();
  DEMA_RETURN_NOT_OK(loop_.Init());
  // Every Send wakes the loop; the tick moves outbox messages to sockets.
  loop_.SetTickHandler([this] { DrainOutboxes(); });
  loop_thread_ = std::thread([this] { loop_.Run(); });
  loop_started_ = true;
  if (options_.session.heartbeat_interval_us > 0) {
    // Self-rescheduling liveness timer: half-interval granularity keeps
    // ping spacing and miss detection within one interval of exact.
    loop_.Post([this] {
      loop_.PostDelayed(options_.session.heartbeat_interval_us / 2 + 1,
                        [this] { HeartbeatTick(); });
    });
  }
  return Status::OK();
}

void TcpTransport::StopLoopForTest() {
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void TcpTransport::RequestRedial(NodeId dst) {
  if (!options_.session.auto_reconnect ||
      stopped_.load(std::memory_order_relaxed)) {
    return;
  }
  Session* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (peers_.find(dst) == peers_.end()) return;  // nothing to dial
    auto sit = sessions_.find(dst);
    if (sit == sessions_.end()) return;  // nothing queued or in flight
    session = sit->second.get();
  }
  if (session->closing.load(std::memory_order_relaxed)) return;
  if (session->redial_pending.exchange(true)) return;  // one in flight
  {
    std::lock_guard<std::mutex> lock(redial_mu_);
    if (redial_stop_) {
      session->redial_pending.store(false);
      return;
    }
    redial_queue_.push_back(dst);
    if (!redial_started_) {
      redial_started_ = true;
      redial_thread_ = std::thread([this] { RedialThreadMain(); });
    }
  }
  redial_cv_.notify_one();
}

void TcpTransport::RedialThreadMain() {
  while (true) {
    NodeId dst = 0;
    {
      std::unique_lock<std::mutex> lock(redial_mu_);
      redial_cv_.wait(lock,
                      [&] { return redial_stop_ || !redial_queue_.empty(); });
      if (redial_stop_) return;
      dst = redial_queue_.front();
      redial_queue_.pop_front();
    }
    Peer peer;
    Session* session = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto pit = peers_.find(dst);
      auto sit = sessions_.find(dst);
      if (pit == peers_.end() || sit == sessions_.end()) continue;
      peer = pit->second;
      session = sit->second.get();
    }
    auto fd = DialWithRetry(peer.host, peer.port);
    // Clear the dedup flag before adopting: if the fresh connection dies
    // instantly, its KillConn may queue the next round immediately.
    session->redial_pending.store(false);
    if (!fd.ok()) {
      DEMA_LOG(Warn) << "redial of node " << dst
                     << " gave up: " << fd.status();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_.load()) {
        ::close(*fd);
        return;
      }
      auto rit = routes_.find(dst);
      if (rit != routes_.end() && !rit->second->dead.load()) {
        ::close(*fd);  // a racing sync dial won; use its route
        continue;
      }
      Conn* conn = AdoptLocked(*fd, /*expect_hello=*/false, {dst});
      routes_[dst] = conn;
    }
    c_reconnects_->Increment();
    loop_.Wake();
  }
}

Status TcpTransport::Start() {
  DEMA_RETURN_NOT_OK(EnsureLoopStarted());
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::InvalidArgument("transport already started");
  started_ = true;
  if (options_.adopted_listen_fd >= 0) {
    listen_fd_ = options_.adopted_listen_fd;
  } else if (options_.listen) {
    DEMA_ASSIGN_OR_RETURN(
        listen_fd_, BindListenSocket(options_.listen_host, options_.listen_port));
  } else {
    return Status::OK();  // pure client: no listener
  }

  // Read back the bound port (the configured one may have been ephemeral).
  DEMA_ASSIGN_OR_RETURN(bound_port_, ListenSocketPort(listen_fd_));
  DEMA_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  const int lfd = listen_fd_;
  loop_.Post([this, lfd] {
    Status st = loop_.Add(lfd, EPOLLIN, [this](uint32_t) { OnAcceptReady(); });
    if (!st.ok()) DEMA_LOG(Warn) << "listener registration failed: " << st;
  });
  return Status::OK();
}

uint16_t TcpTransport::bound_port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bound_port_;
}

net::Channel* TcpTransport::Inbox(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inboxes_.find(id);
  return it == inboxes_.end() ? nullptr : it->second.get();
}

uint32_t TcpTransport::NextSeqFor(NodeId src, NodeId dst) {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t n = ++next_seq_[StreamKey(src, dst)];
  return (options_.seq_epoch << 24) | (n & 0x00FFFFFFu);
}

TcpTransport::Session* TcpTransport::SessionForLocked(NodeId dst) {
  auto it = sessions_.find(dst);
  if (it != sessions_.end()) return it->second.get();
  auto owned = std::make_unique<Session>();
  owned->dst = dst;
  owned->outbox = std::make_unique<net::Channel>(options_.outbox_capacity);
  Session* session = owned.get();
  sessions_.emplace(dst, std::move(owned));
  return session;
}

Status TcpTransport::Send(net::Message m) {
  if (stopped_.load(std::memory_order_relaxed)) {
    return Status::NetworkError("transport is shut down");
  }
  m.seq = NextSeqFor(m.src, m.dst);
  net::Channel* local = Inbox(m.dst);
  if (local != nullptr) {
    // Loopback to a node hosted in this process: no socket involved; charge
    // the frame-equivalent bytes so accounting matches other transports.
    sent_.Charge(m.src, m.dst, m.type, m.WireBytes(), m.event_count);
    if (!local->Push(std::move(m))) {
      return Status::NetworkError("inbox of destination node closed");
    }
    return Status::OK();
  }

  const NodeId dst = m.dst;
  Session* session = nullptr;
  bool route_live = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto rit = routes_.find(dst);
    route_live = rit != routes_.end() &&
                 !rit->second->dead.load(std::memory_order_relaxed);
    auto sit = sessions_.find(dst);
    if (sit != sessions_.end()) {
      session = sit->second.get();
    } else if (route_live ||
               (rit != routes_.end() && options_.session.auto_reconnect)) {
      // Hello-learned route (we are the acceptor replying): the session is
      // created on first reply. With auto_reconnect that holds even if the
      // connection died before the first reply: the dialer redials, and the
      // reply waits in the outbox until its hello resumes the session.
      session = SessionForLocked(dst);
    } else if (peers_.find(dst) == peers_.end()) {
      return Status::NotFound("no route to node " + std::to_string(dst) +
                              " (no connection and no configured peer)");
    }
  }
  if (session != nullptr && !route_live && options_.session.auto_reconnect) {
    // The connection died under an existing session: queue a background
    // redial (deduped) and let the message wait in the outbox meanwhile.
    RequestRedial(dst);
  } else if (!route_live) {
    // First send to a configured peer — or a dead route without background
    // redial: dial synchronously with bounded retry, as the pre-session
    // transport did, so a missing listener surfaces here.
    DEMA_ASSIGN_OR_RETURN(Conn * conn, ConnFor(dst));
    (void)conn;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_.load()) return Status::NetworkError("transport is shut down");
    session = SessionForLocked(dst);
  }
  if (m.type == net::MessageType::kShutdown) {
    // The stream is ending by design: a close that follows is orderly, not
    // a peer failure, and must not trigger redial.
    session->closing.store(true, std::memory_order_relaxed);
  }

  // Bounded-slice push: classic backpressure against a full outbox, but
  // shutdown-aware — a `Send` blocked here fails fast when `Shutdown`
  // begins or the I/O loop is no longer alive to drain the queue, instead
  // of waiting forever on space that can never free.
  bool counted_full = false;
  while (true) {
    net::Channel::PushResult r =
        session->outbox->PushFor(&m, options_.outbox_block ? kSendPollSliceUs
                                                           : DurationUs{0});
    if (r == net::Channel::PushResult::kPushed) break;
    if (r == net::Channel::PushResult::kClosed) {
      return Status::NetworkError("connection to destination closed");
    }
    if (!counted_full) {
      c_outbox_full_->Increment();
      counted_full = true;
    }
    if (!options_.outbox_block) {
      return Status::NetworkError("outbox to node " + std::to_string(dst) +
                                  " is full (" +
                                  std::to_string(options_.outbox_capacity) +
                                  " messages queued)");
    }
    if (stopped_.load(std::memory_order_relaxed)) {
      return Status::NetworkError(
          "transport shut down while a send waited for outbox space");
    }
    if (loop_.finished()) {
      return Status::NetworkError(
          "transport I/O loop exited while a send waited for outbox space "
          "(frames to node " + std::to_string(dst) + " can no longer drain)");
    }
    // The route may have died while we waited: with nothing draining the
    // outbox, space would never free. Make sure a connection is coming —
    // background redial when enabled, else a synchronous dial whose failure
    // surfaces here instead of as an eternal block.
    bool live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto rit = routes_.find(dst);
      live = rit != routes_.end() &&
             !rit->second->dead.load(std::memory_order_relaxed);
    }
    if (!live) {
      if (options_.session.auto_reconnect) {
        RequestRedial(dst);
      } else {
        auto conn = ConnFor(dst);
        if (!conn.ok()) return conn.status();
      }
    }
  }
  loop_.Wake();
  return Status::OK();
}

Result<TcpTransport::Conn*> TcpTransport::ConnFor(NodeId dst) {
  Peer peer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto rit = routes_.find(dst);
    if (rit != routes_.end() && !rit->second->dead.load()) return rit->second;
    auto pit = peers_.find(dst);
    if (pit == peers_.end()) {
      return Status::NotFound("no route to node " + std::to_string(dst) +
                              " (no connection and no configured peer)");
    }
    peer = pit->second;
  }
  DEMA_RETURN_NOT_OK(EnsureLoopStarted());
  // Dial outside the lock: connect retries can take a while.
  DEMA_ASSIGN_OR_RETURN(int fd, DialWithRetry(peer.host, peer.port));
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_.load()) {
    ::close(fd);  // dial completed after Shutdown reaped the conn table
    return Status::NetworkError("transport is shut down");
  }
  auto rit = routes_.find(dst);
  if (rit != routes_.end() && !rit->second->dead.load()) {
    ::close(fd);  // lost a dial race; use the established route
    return rit->second;
  }
  Conn* conn = AdoptLocked(fd, /*expect_hello=*/false, {dst});
  routes_[dst] = conn;
  return conn;
}

Result<int> TcpTransport::DialWithRetry(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  DEMA_RETURN_NOT_OK(Resolve(host, port, &addr));
  std::vector<uint8_t> hello;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<NodeId> hosted;
    hosted.reserve(inboxes_.size());
    for (const auto& [id, inbox] : inboxes_) {
      (void)inbox;
      hosted.push_back(id);
    }
    EncodeHello(hosted, &hello);
  }

  DurationUs backoff = options_.connect_backoff_initial_us;
  Status last = Status::NetworkError("no connect attempt made");
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (stopped_.load()) return Status::NetworkError("transport is shut down");
    if (attempt > 0) {
      // Jitter the sleep so many dialers retrying against one freshly
      // restarted acceptor spread out instead of arriving in lockstep.
      DurationUs sleep_us = backoff;
      {
        std::lock_guard<std::mutex> lock(jitter_mu_);
        sleep_us = static_cast<DurationUs>(jitter_rng_.Uniform(
            static_cast<double>(backoff) / 2, static_cast<double>(backoff)));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      backoff = std::min<DurationUs>(backoff * 2, options_.connect_backoff_max_us);
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last = Status::NetworkError(std::string("socket failed: ") +
                                  std::strerror(errno));
      continue;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      last = Status::NetworkError("connect to " + host + ":" +
                                  std::to_string(port) +
                                  " failed: " + std::strerror(errno));
      ::close(fd);
      continue;
    }
    ConfigureSocket(fd);
    Status st = WriteFull(fd, hello.data(), hello.size(), stopped_);
    if (!st.ok()) {
      ::close(fd);
      last = st;
      continue;
    }
    return fd;
  }
  return last;
}

TcpTransport::Conn* TcpTransport::AdoptLocked(int fd, bool expect_hello,
                                              std::vector<NodeId> dsts) {
  auto owned = std::make_unique<Conn>();
  Conn* conn = owned.get();
  conn->fd = fd;
  conn->expect_hello = expect_hello;
  // Written before the registration task is posted, so loop-thread reads of
  // `dsts` are ordered after this store.
  conn->dsts = std::move(dsts);
  conns_.push_back(std::move(owned));
  loop_.Post([this, conn] { RegisterConn(conn); });
  return conn;
}

// --- loop-thread side --------------------------------------------------------

void TcpTransport::RegisterConn(Conn* conn) {
  if (draining_ || loop_.stopping()) {
    KillConn(conn);
    return;
  }
  Status st = SetNonBlocking(conn->fd);
  if (st.ok()) {
    st = loop_.Add(conn->fd, EPOLLIN,
                   [this, conn](uint32_t ev) { OnConnEvent(conn, ev); });
  }
  if (!st.ok()) {
    DEMA_LOG(Warn) << "connection registration failed: " << st;
    KillConn(conn);
    return;
  }
  conn->registered = true;
  conn->last_recv_us = EpollLoop::NowUs();
  // A (re)dialed connection resumes its destinations' sessions: in-flight
  // frames replay ahead of fresh outbox traffic, preserving stream order.
  std::vector<Session*> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (NodeId dst : conn->dsts) {
      auto sit = sessions_.find(dst);
      if (sit != sessions_.end()) sessions.push_back(sit->second.get());
    }
  }
  for (Session* s : sessions) ReplaySession(s, conn);
}

void TcpTransport::OnAcceptReady() {
  while (!draining_) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;  // backlog drained
      if (err == EINTR || err == ECONNABORTED || err == EPROTO) {
        continue;  // that one connection is gone; the listener is fine
      }
      OnAcceptError(err);
      return;
    }
    if (accept_failures_to_inject_ > 0) {
      // Test hook: pretend accept hit a transient hard error (EMFILE-style)
      // so the resilience path — count, back off, survive — is exercised
      // deterministically.
      --accept_failures_to_inject_;
      ::close(fd);
      OnAcceptError(EMFILE);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    AdoptLocked(fd, /*expect_hello=*/true, {});
  }
}

void TcpTransport::OnAcceptError(int err) {
  // The pre-loop transport returned here, killing accept forever — one
  // transient EMFILE and the process was deaf. Count it, pull the listener
  // out of the epoll set (a ready listener would spin a level-triggered
  // loop), and re-arm after a backoff. The listener never dies.
  DEMA_LOG(Warn) << "accept failed (will retry): " << std::strerror(err);
  c_accept_errors_->Increment();
  loop_.Remove(listen_fd_);
  loop_.PostDelayed(options_.accept_backoff_us, [this] {
    if (draining_ || loop_.stopping()) return;
    Status st =
        loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptReady(); });
    if (!st.ok()) DEMA_LOG(Warn) << "listener re-arm failed: " << st;
  });
}

void TcpTransport::OnConnEvent(Conn* conn, uint32_t events) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  if (events & EPOLLOUT) TryWrite(conn);
  if (events & EPOLLIN) {
    ReadReady(conn);
  } else if (events & (EPOLLHUP | EPOLLERR)) {
    // No readable data to drain first: the connection is gone.
    KillConn(conn);
  }
}

void TcpTransport::ReadReady(Conn* conn) {
  size_t budget = kReadBudget;
  while (budget > 0 && !conn->dead.load(std::memory_order_relaxed)) {
    EnsureReadCapacity(conn, kFrameHeaderBytes);
    uint8_t* dst = conn->rblock->data() + conn->rend;
    size_t room = conn->rblock->size() - conn->rend;
    ssize_t n = ::recv(conn->fd, dst, std::min(room, budget), 0);
    if (n > 0) {
      conn->rend += static_cast<size_t>(n);
      budget -= static_cast<size_t>(n);
      conn->last_recv_us = EpollLoop::NowUs();
      if (!ParseFrames(conn)) return;
      continue;
    }
    if (n == 0) {
      // Peer closed; a partial inbound frame is counted by KillConn
      // (`net.partial_frame_drops`) instead of vanishing silently.
      KillConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    DEMA_LOG(Warn) << "connection read error: " << std::strerror(errno);
    KillConn(conn);
    return;
  }
  // Acknowledge every stream this pass progressed in one coalesced frame.
  if (!conn->dead.load(std::memory_order_relaxed)) FlushAcks(conn);
}

void TcpTransport::EnsureReadCapacity(Conn* conn, size_t hint) {
  if (conn->rblock == nullptr) {
    conn->rblock =
        std::make_shared<std::vector<uint8_t>>(std::max(kRecvBlockBytes, hint));
    conn->rpos = conn->rend = 0;
    return;
  }
  if (conn->rend < conn->rblock->size()) return;  // room to fill
  // Block full. Parsed bytes may be pinned by delivered payload views, so
  // the block is never rewound in place — a fresh block takes over, with the
  // unparsed tail (at most one partial frame) copied to its front. This is
  // the only copy on the receive path.
  size_t tail = conn->rend - conn->rpos;
  size_t want = std::max(tail + hint, tail * 2);
  if (!conn->expect_hello && tail >= kFrameHeaderBytes) {
    // The partial frame's header is already here: size the fresh block to
    // hold the whole frame so an oversized payload moves exactly once.
    FrameHeader h;
    if (DecodeFrameHeader(conn->rblock->data() + conn->rpos, kFrameHeaderBytes,
                          kMaxFramePayload, &h)
            .ok()) {
      want = kFrameHeaderBytes + h.payload_size + kFrameTrailerBytes;
    }
  }
  auto fresh =
      std::make_shared<std::vector<uint8_t>>(std::max(kRecvBlockBytes, want));
  std::memcpy(fresh->data(), conn->rblock->data() + conn->rpos, tail);
  conn->rblock = std::move(fresh);
  conn->rpos = 0;
  conn->rend = tail;
}

bool TcpTransport::ParseFrames(Conn* conn) {
  while (true) {
    const uint8_t* base = conn->rblock->data();
    size_t avail = conn->rend - conn->rpos;

    if (conn->expect_hello) {
      if (avail < kHelloPrefixBytes) return true;
      auto count = DecodeHelloPrefix(base + conn->rpos, kHelloPrefixBytes);
      if (!count.ok()) {
        DEMA_LOG(Warn) << "dropping connection: " << count.status();
        // FIN now so the rejected peer (e.g. a version-1 dialer) sees the
        // rejection immediately instead of hanging until our Shutdown();
        // Shutdown() still owns the close, so the fd is reaped exactly once.
        ::shutdown(conn->fd, SHUT_RDWR);
        KillConn(conn);
        return false;
      }
      size_t ids_bytes = *count * sizeof(uint32_t);
      if (avail < kHelloPrefixBytes + ids_bytes) {
        EnsureReadCapacity(conn, kHelloPrefixBytes + ids_bytes - avail);
        return true;
      }
      auto ids = DecodeHelloNodes(base + conn->rpos + kHelloPrefixBytes,
                                  ids_bytes, *count);
      if (!ids.ok()) {
        DEMA_LOG(Warn) << "dropping connection: " << ids.status();
        ::shutdown(conn->fd, SHUT_RDWR);
        KillConn(conn);
        return false;
      }
      std::vector<Session*> resumed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        // Replies to the dialer's nodes travel back over this connection.
        // A reconnecting dialer re-announces the same ids: the route
        // rebinds from its dead predecessor and the session resumes.
        for (NodeId id : *ids) {
          routes_[id] = conn;
          conn->dsts.push_back(id);
          auto sit = sessions_.find(id);
          if (sit != sessions_.end()) resumed.push_back(sit->second.get());
        }
      }
      conn->rpos += kHelloPrefixBytes + ids_bytes;
      conn->expect_hello = false;
      for (Session* s : resumed) ReplaySession(s, conn);
      continue;
    }

    if (avail < kFrameHeaderBytes) return true;
    FrameHeader h;
    Status st = DecodeFrameHeader(base + conn->rpos, kFrameHeaderBytes,
                                  kMaxFramePayload, &h);
    if (!st.ok()) {
      DEMA_LOG(Warn) << "dropping connection on bad frame: " << st;
      KillConn(conn);
      return false;
    }
    const size_t frame_total =
        kFrameHeaderBytes + h.payload_size + kFrameTrailerBytes;
    if (avail < frame_total) {
      EnsureReadCapacity(conn, frame_total - avail);
      return true;
    }

    const uint8_t* header = base + conn->rpos;
    const uint8_t* payload = header + kFrameHeaderBytes;
    const uint8_t* trailer = payload + h.payload_size;
    // The checksum guards the decoded header too, so verify before acting on
    // anything but the payload length (which framing already consumed). A
    // mismatch drops this frame only: framing is intact, the connection
    // survives, and the sender's retry machinery recovers the message.
    st = VerifyFrameCrc(header, kFrameHeaderBytes, payload, h.payload_size,
                        trailer);
    if (!st.ok()) {
      DEMA_LOG(Warn) << "dropping corrupt frame: " << st;
      c_corrupted_total_->Increment();
      c_corrupted_recv_->Increment();
      conn->rpos += frame_total;
      continue;
    }

    if (h.type == net::MessageType::kHeartbeat ||
        h.type == net::MessageType::kAck) {
      // Transport control: consumed here, never delivered, never charged to
      // the link-traffic instruments (byte parity with the fabric).
      HandleControlFrame(conn, h, payload);
      conn->rpos += frame_total;
      if (conn->dead.load(std::memory_order_relaxed)) return false;
      continue;
    }

    if (!AcceptSeq(h.src, h.dst, h.seq)) {
      // Retransmit duplicate (the original arrived): swallowed before the
      // inbox and before recv accounting, but re-acked below so the sender
      // stops replaying it.
      c_dup_dropped_->Increment();
      conn->rpos += frame_total;
      continue;
    }

    if (h.type == net::MessageType::kShutdown) conn->saw_shutdown = true;

    net::Message m;
    m.type = h.type;
    m.src = h.src;
    m.dst = h.dst;
    m.seq = h.seq;
    // Zero-copy delivery: the payload stays in the arena block, pinned by
    // the message for as long as any consumer holds it.
    m.SetPayloadView(conn->rblock, payload, h.payload_size);
    // Reconstruct the event-count metadata (sender-side only, not framed).
    auto events = PeekEventCount(h.type, m.payload_bytes());
    m.event_count = events.ok() ? *events : 0;
    recv_.Charge(h.src, h.dst, h.type, frame_total, m.event_count);
    conn->rpos += frame_total;

    net::Channel* inbox = Inbox(h.dst);
    if (inbox == nullptr) {
      DEMA_LOG(Warn) << "dropping frame for non-hosted node " << h.dst;
      continue;
    }
    inbox->Push(std::move(m));
  }
}

void TcpTransport::HandleControlFrame(Conn* conn, const FrameHeader& h,
                                      const uint8_t* payload) {
  net::Reader r(payload, h.payload_size);
  if (h.type == net::MessageType::kHeartbeat) {
    auto hb = net::Heartbeat::Deserialize(&r);
    if (!hb.ok()) {
      DEMA_LOG(Warn) << "dropping malformed heartbeat: " << hb.status();
      return;
    }
    if (hb->kind == net::Heartbeat::Kind::kPing) {
      // Echo the probe instant back so the pinger reads RTT off its own
      // monotonic clock; no shared clock needed.
      net::Heartbeat pong;
      pong.kind = net::Heartbeat::Kind::kPong;
      pong.probe_time_us = hb->probe_time_us;
      QueueControlFrame(conn, net::MakeMessage(net::MessageType::kHeartbeat,
                                               h.dst, h.src, pong));
      TryWrite(conn);
    } else if (!conn->dsts.empty()) {
      TimestampUs rtt = EpollLoop::NowUs() - hb->probe_time_us;
      registry_
          ->GetGauge("net.peer_rtt_us{peer=" +
                     std::to_string(conn->dsts.front()) + "}")
          ->Set(static_cast<int64_t>(rtt));
    }
    return;
  }
  auto ack = net::CumulativeAck::Deserialize(&r);
  if (!ack.ok()) {
    DEMA_LOG(Warn) << "dropping malformed ack: " << ack.status();
    return;
  }
  for (const auto& e : ack->entries) ApplyAck(e.src, e.dst, e.cum_seq);
}

bool TcpTransport::AcceptSeq(NodeId src, NodeId dst, uint32_t seq) {
  if (seq == 0) return true;  // unsequenced control
  RecvStream& s = recv_streams_[StreamKey(src, dst)];
  if (s.seen_any && (s.cum >> 24) != (seq >> 24)) {
    // New epoch: the sender restarted with fresh 1-based numbering. Its old
    // life's window is meaningless now — reset rather than mis-dedup.
    s = RecvStream{};
  }
  if (!s.seen_any) {
    s.seen_any = true;
    // "Nothing received yet in this epoch": counter zero, so a first frame
    // arriving out of order (e.g. seq 3 before retransmitted 1 and 2) opens
    // a gap instead of silently discarding the stream's start.
    s.cum = seq & 0xFF000000u;
  }
  s.ack_dirty = true;
  if (!SerialGt(seq, s.cum)) return false;  // at or below cum: duplicate
  if (seq == s.cum + 1) {
    s.cum = seq;
    // Absorb any out-of-order successors that became contiguous.
    auto it = s.ooo.begin();
    while (it != s.ooo.end() && *it == s.cum + 1) {
      s.cum = *it;
      it = s.ooo.erase(it);
    }
    return true;
  }
  if (s.ooo.count(seq) > 0) return false;  // duplicate of a gap frame
  if (s.ooo.size() >= kMaxHelloNodes) s.ooo.clear();  // corrupt-seq defence
  s.ooo.insert(seq);
  return true;
}

void TcpTransport::FlushAcks(Conn* conn) {
  // Every dirty stream belongs to this pass (acks flush at the end of each
  // connection's read pass, so flags never leak across connections).
  net::CumulativeAck ack;
  for (auto& [key, s] : recv_streams_) {
    if (!s.ack_dirty) continue;
    s.ack_dirty = false;
    if ((s.cum & 0x00FFFFFFu) == 0) continue;  // nothing contiguous yet
    net::CumulativeAck::Entry e;
    e.src = static_cast<NodeId>(key >> 32);
    e.dst = static_cast<NodeId>(key & 0xFFFFFFFFu);
    e.cum_seq = s.cum;
    ack.entries.push_back(e);
  }
  if (ack.entries.empty()) return;
  QueueControlFrame(conn,
                    net::MakeMessage(net::MessageType::kAck, 0, 0, ack));
  TryWrite(conn);
}

void TcpTransport::ApplyAck(NodeId src, NodeId dst, uint32_t cum_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  auto sit = sessions_.find(dst);
  if (sit == sessions_.end()) return;
  Session* session = sit->second.get();
  auto acked = [&](const std::shared_ptr<InflightFrame>& f) {
    return f->src == src && f->dst == dst &&
           (f->seq >> 24) == (cum_seq >> 24) && !SerialGt(f->seq, cum_seq);
  };
  auto& q = session->inflight;
  q.erase(std::remove_if(q.begin(), q.end(), acked), q.end());
}

void TcpTransport::QueueControlFrame(Conn* conn, net::Message m) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  (m.type == net::MessageType::kHeartbeat ? c_heartbeats_ : c_acks_)
      ->Increment();
  Conn::Queued q;
  EncodeFrame(m, &q.own);
  conn->wq_bytes += q.own.size();
  conn->wq.push_back(std::move(q));
}

void TcpTransport::QueueFrame(Conn* conn, std::shared_ptr<InflightFrame> frame,
                              std::vector<uint8_t> flipped) {
  if (frame->written) {
    // A re-send: the first write was charged, and the receiver's dedup
    // swallows this copy if the original arrived.
    frame->written_at_us = EpollLoop::NowUs();
    c_replayed_->Increment();
  }
  conn->wq_bytes += frame->bytes.size();
  conn->wq.push_back(Conn::Queued{std::move(frame), std::move(flipped)});
}

void TcpTransport::HeartbeatTick() {
  if (draining_ || loop_.stopping()) return;
  const DurationUs interval = options_.session.heartbeat_interval_us;
  const TimestampUs now = EpollLoop::NowUs();
  std::vector<Conn*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.reserve(conns_.size());
    for (const auto& c : conns_) conns.push_back(c.get());
  }
  for (Conn* c : conns) {
    if (!c->registered || c->dead.load(std::memory_order_relaxed) ||
        c->expect_hello) {
      continue;
    }
    if (now - c->last_recv_us >=
        static_cast<TimestampUs>(options_.session.heartbeat_misses) * interval) {
      // N whole intervals of silence — not even a pong. The peer is gone;
      // KillConn does the peer-down accounting and queues the redial.
      KillConn(c);
      continue;
    }
    if (now - c->last_recv_us >= interval && now - c->last_ping_us >= interval) {
      net::Heartbeat ping;
      ping.probe_time_us = now;
      c->last_ping_us = now;
      QueueControlFrame(c, net::MakeMessage(net::MessageType::kHeartbeat, 0, 0,
                                            ping));
      TryWrite(c);
    }
  }

  // Retransmit overdue unacked frames (recovers frames the receiver's CRC
  // check dropped: no connection death, no ack progress, just loss).
  const DurationUs rto =
      kRetransmitHeartbeats * options_.session.heartbeat_interval_us;
  std::vector<std::pair<Session*, Conn*>> overdue;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [dst, session] : sessions_) {
      const auto& q = session->inflight;
      auto oldest = std::find_if(q.begin(), q.end(),
                                 [](const auto& f) { return f->written; });
      if (oldest == q.end() || now - (*oldest)->written_at_us < rto) continue;
      auto rit = routes_.find(dst);
      if (rit == routes_.end() || rit->second->dead.load() ||
          !rit->second->registered) {
        continue;  // no live conn; replay happens at rebind instead
      }
      overdue.emplace_back(session.get(), rit->second);
    }
  }
  for (auto& [session, conn] : overdue) {
    for (const auto& f : session->inflight) {
      if (f->written) QueueFrame(conn, f);
    }
    TryWrite(conn);
  }

  loop_.PostDelayed(interval / 2 + 1, [this] { HeartbeatTick(); });
}

void TcpTransport::ReplaySession(Session* session, Conn* conn) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  // The whole in-flight queue in encode order, ahead of fresh outbox
  // traffic, so per-stream order is preserved exactly. Frames a dead
  // connection never finished writing get their first write here.
  for (const auto& f : session->inflight) QueueFrame(conn, f);
  if (!conn->wq.empty() && conn->registered) TryWrite(conn);
}

void TcpTransport::DrainOutboxes() {
  std::vector<Conn*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.reserve(conns_.size());
    for (const auto& c : conns_) conns.push_back(c.get());
  }
  for (Conn* c : conns) {
    if (c->registered && !c->dead.load(std::memory_order_relaxed) &&
        !c->flushed) {
      DrainConnOutbox(c);
    }
  }
}

void TcpTransport::DrainConnOutbox(Conn* conn) {
  std::vector<Session*> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(conn->dsts.size());
    for (NodeId dst : conn->dsts) {
      auto sit = sessions_.find(dst);
      if (sit != sessions_.end()) sessions.push_back(sit->second.get());
    }
  }
  // As many in flight as queueable, so retention roughly doubles a
  // destination's memory bound instead of multiplying it.
  const size_t retain_cap = options_.outbox_capacity;
  for (Session* session : sessions) {
    // Encode queued messages into per-frame buffers up to the in-flight
    // high-water mark; past it the bounded outbox backpressures Send. During
    // the shutdown drain the cap is lifted — the outbox is closed, its
    // content is all that remains, and it must reach the write queue to be
    // flushed.
    while (draining_ || conn->wq_bytes < kWriteHighWater) {
      if (!draining_ && retain_cap > 0 &&
          session->inflight.size() >= retain_cap) {
        // In-flight window full: an unresponsive peer must not turn the
        // replay buffer into unbounded memory. Leaving messages in the
        // bounded outbox backpressures Send exactly like a slow peer.
        break;
      }
      auto m = session->outbox->TryPop();
      if (!m) break;
      if (m->type == net::MessageType::kShutdown) conn->saw_shutdown = true;
      auto f = std::make_shared<InflightFrame>();
      f->src = m->src;
      f->dst = m->dst;
      f->type = m->type;
      f->event_count = m->event_count;
      f->seq = m->seq;
      EncodeFrame(*m, &f->bytes);
      std::vector<uint8_t> flipped;
      if (options_.fault.corrupt_rate > 0 &&
          f->bytes.size() > kFrameHeaderBytes) {
        std::lock_guard<std::mutex> lock(corrupt_mu_);
        if (corrupt_rng_.Bernoulli(options_.fault.corrupt_rate)) {
          // Flip one byte past the header (payload or CRC region) so the
          // receiver's framing survives and its checksum does the catching.
          // The flip goes on a private copy: the damage is the wire's, and
          // a replay must carry the pristine encoding.
          flipped = f->bytes;
          const auto at = static_cast<size_t>(corrupt_rng_.UniformInt(
              static_cast<int64_t>(kFrameHeaderBytes),
              static_cast<int64_t>(flipped.size() - 1)));
          flipped[at] ^= static_cast<uint8_t>(corrupt_rng_.UniformInt(1, 255));
          c_corrupted_total_->Increment();
          c_corrupted_inject_->Increment();
        }
      }
      session->inflight.push_back(f);
      QueueFrame(conn, std::move(f), std::move(flipped));
    }
  }
  if (!conn->wq.empty()) TryWrite(conn);
}

void TcpTransport::TryWrite(Conn* conn) {
  if (conn->stall_until_us != 0) {
    // Chaos write stall: the socket stays open but nothing leaves it;
    // backpressure builds exactly as on a congested link. A delayed task
    // resumes the write when the stall expires.
    if (EpollLoop::NowUs() < conn->stall_until_us) return;
    conn->stall_until_us = 0;
  }
  while (!conn->wq.empty()) {
    // Scatter-gather: one writev covers up to kMaxIov queued frames, so a
    // burst of small synopsis/gamma/keyed frames costs one syscall.
    iovec iov[kMaxIov];
    size_t niov = 0;
    for (const auto& q : conn->wq) {
      if (niov == kMaxIov) break;
      const std::vector<uint8_t>& bytes = q.bytes();
      size_t off = (niov == 0) ? conn->wq_head_off : 0;
      iov[niov].iov_base = const_cast<uint8_t*>(bytes.data() + off);
      iov[niov].iov_len = bytes.size() - off;
      ++niov;
    }
    // sendmsg rather than writev: MSG_NOSIGNAL turns a peer-closed (or
    // chaos-severed) socket into a plain EPIPE instead of a fatal SIGPIPE.
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    ssize_t n = ::sendmsg(conn->fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          loop_.Modify(conn->fd, EPOLLIN | EPOLLOUT);
        }
        return;
      }
      if (errno == EINTR) continue;
      DEMA_LOG(Warn) << "connection write error: " << std::strerror(errno);
      KillConn(conn);
      return;
    }
    size_t written = static_cast<size_t>(n);
    if (draining_) {
      // Progress: the stalled-peer grace period restarts.
      conn->drain_deadline_us = EpollLoop::NowUs() + kIoTimeoutUs;
    }
    while (written > 0) {
      Conn::Queued& q = conn->wq.front();
      const size_t size = q.bytes().size();
      size_t rest = size - conn->wq_head_off;
      if (written < rest) {
        conn->wq_head_off += written;
        written = 0;
        break;
      }
      written -= rest;
      conn->wq_bytes -= size;
      bool kill_now = false;
      if (q.frame != nullptr && !q.frame->written) {
        // A data frame's first completed write: charge it here and only here
        // (the link-traffic instruments must match the fabric's accounting
        // byte for byte; heartbeats, acks and replays stay off the books)
        // and advance the chaos schedules.
        InflightFrame& f = *q.frame;
        f.written = true;
        f.written_at_us = EpollLoop::NowUs();
        sent_.Charge(f.src, f.dst, f.type, f.bytes.size(), f.event_count);
        ++data_frames_written_;
        const TcpFaultOptions& fault = options_.fault;
        const auto& kills = fault.kill_conn_schedule;
        if (!draining_ && kill_schedule_idx_ < kills.size() &&
            data_frames_written_ >= kills[kill_schedule_idx_]) {
          // Chaos: sever the live socket right after this data frame, as a
          // mid-window network failure would. Session resilience must make
          // this invisible to the protocol's results.
          ++kill_schedule_idx_;
          c_conn_kills_->Increment();
          kill_now = true;
        }
        if (!draining_ && !write_stall_armed_ &&
            fault.write_stall_after_frames > 0 &&
            data_frames_written_ >= fault.write_stall_after_frames) {
          write_stall_armed_ = true;
          conn->stall_until_us = EpollLoop::NowUs() + fault.write_stall_us;
          loop_.PostDelayed(fault.write_stall_us + 1, [this, conn] {
            if (!conn->dead.load(std::memory_order_relaxed)) TryWrite(conn);
          });
        }
      }
      conn->wq_head_off = 0;
      conn->wq.pop_front();
      if (kill_now) {
        KillConn(conn);
        return;
      }
      if (conn->stall_until_us != 0) return;  // stall starts after this frame
    }
  }
  if (conn->want_write) {
    conn->want_write = false;
    loop_.Modify(conn->fd, draining_ ? 0u : uint32_t{EPOLLIN});
  }
  if (draining_ && conn->wq.empty() && !conn->flushed) {
    // Every session routed here must be closed and drained before the
    // half-close announces end-of-stream.
    bool drained = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (NodeId dst : conn->dsts) {
        auto sit = sessions_.find(dst);
        if (sit == sessions_.end()) continue;
        net::Channel* outbox = sit->second->outbox.get();
        if (!outbox->closed() || outbox->size() != 0) {
          drained = false;
          break;
        }
      }
    }
    if (drained) {
      ::shutdown(conn->fd, SHUT_WR);
      conn->flushed = true;
    }
  }
}

void TcpTransport::KillConn(Conn* conn) {
  if (conn->dead.exchange(true)) return;
  loop_.Remove(conn->fd);
  // Sever for real — the peer must observe the FIN (its own liveness and
  // reconnect machinery depends on it) even though the fd itself stays
  // parked until Shutdown reaps it: Send-side threads may still hold the
  // Conn*, and fd reuse while such pointers exist is worse than a parked
  // descriptor.
  ::shutdown(conn->fd, SHUT_RDWR);
  if (!conn->expect_hello && conn->rblock != nullptr &&
      conn->rend > conn->rpos) {
    // The peer died mid-frame. The old transport dropped these bytes
    // silently; now the loss is visible next to the link metrics.
    c_partial_frame_drops_->Increment();
  }
  // Unwritten data frames stay in their sessions' in-flight queues and
  // replay on the next connection; a partially written head frame replays
  // whole (the receiver discards its partial bytes).
  conn->wq.clear();
  conn->wq_bytes = 0;
  conn->wq_head_off = 0;
  conn->want_write = false;

  // Orderly teardown (shutdown drain, a kShutdown either way, or every
  // routed session closing) is not a peer failure: no peer-down accounting
  // and no redial. Everything else is.
  bool all_closing = !conn->dsts.empty();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (NodeId dst : conn->dsts) {
      auto sit = sessions_.find(dst);
      if (sit == sessions_.end() ||
          !sit->second->closing.load(std::memory_order_relaxed)) {
        all_closing = false;
        break;
      }
    }
  }
  const bool clean = draining_ || conn->saw_shutdown || all_closing;
  if (!clean && !conn->dsts.empty()) {
    c_peer_down_->Increment();
    if (options_.session.auto_reconnect &&
        !stopped_.load(std::memory_order_relaxed)) {
      for (NodeId dst : conn->dsts) RequestRedial(dst);
    }
  }
}

void TcpTransport::BeginDrain() {
  draining_ = true;
  if (listen_fd_ >= 0) loop_.Remove(listen_fd_);
  std::vector<Conn*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.reserve(conns_.size());
    for (const auto& c : conns_) conns.push_back(c.get());
  }
  TimestampUs deadline = EpollLoop::NowUs() + kIoTimeoutUs;
  for (Conn* c : conns) {
    if (c->dead.load(std::memory_order_relaxed)) continue;
    c->drain_deadline_us = deadline;
    if (c->registered) {
      // Stop delivering inbound frames (the old reader threads exited at the
      // stop flag); keep the write side open to flush.
      loop_.Modify(c->fd, c->want_write ? uint32_t{EPOLLOUT} : 0u);
      DrainConnOutbox(c);
      if (!c->flushed) TryWrite(c);
    } else {
      KillConn(c);
    }
  }
  CheckDrainDone();
}

void TcpTransport::CheckDrainDone() {
  std::vector<Conn*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.reserve(conns_.size());
    for (const auto& c : conns_) conns.push_back(c.get());
  }
  bool pending = false;
  TimestampUs now = EpollLoop::NowUs();
  for (Conn* c : conns) {
    if (c->dead.load(std::memory_order_relaxed) || c->flushed) continue;
    DrainConnOutbox(c);
    if (c->flushed) continue;
    if (now >= c->drain_deadline_us) {
      // No write progress for a whole grace period: the peer is stuck or
      // gone. Abandon its remaining frames (best-effort flush, as before).
      KillConn(c);
      continue;
    }
    pending = true;
  }
  if (!pending) {
    loop_.Stop();
    return;
  }
  loop_.PostDelayed(kIoTimeoutUs / 4 + 1, [this] { CheckDrainDone(); });
}

transport::LinkTrafficMap TcpTransport::LinkTraffic() const {
  return sent_.Links();
}

std::map<net::MessageType, net::TrafficCounters> TcpTransport::TrafficByType()
    const {
  return sent_.ByType();
}

transport::LinkTrafficMap TcpTransport::ReceivedTraffic() const {
  return recv_.Links();
}

std::map<net::MessageType, net::TrafficCounters> TcpTransport::ReceivedByType()
    const {
  return recv_.ByType();
}

bool TcpTransport::AwaitAcked(DurationUs timeout_us,
                              const std::vector<NodeId>& dsts) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!loop_started_) return true;  // nothing was ever sent
  }
  const TimestampUs deadline = EpollLoop::NowUs() + timeout_us;
  while (!loop_.finished()) {
    // The in-flight queue is loop-thread state, so the loop answers.
    auto answer = std::make_shared<std::promise<bool>>();
    std::future<bool> acked = answer->get_future();
    loop_.Post([this, answer, dsts] {
      std::lock_guard<std::mutex> lock(mu_);
      bool all = true;
      for (const auto& [dst, session] : sessions_) {
        if (!dsts.empty() &&
            std::find(dsts.begin(), dsts.end(), dst) == dsts.end()) {
          continue;
        }
        if (session->outbox->size() > 0 || !session->inflight.empty()) {
          all = false;
          break;
        }
      }
      answer->set_value(all);
    });
    const TimestampUs left = deadline - EpollLoop::NowUs();
    if (left <= 0 ||
        acked.wait_for(std::chrono::microseconds(left)) !=
            std::future_status::ready) {
      return false;
    }
    if (acked.get()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;  // the loop is gone: nothing can be acknowledged any more
}

void TcpTransport::Shutdown() {
  if (stopped_.exchange(true)) return;

  // Stop the redialer before draining: a reconnect adopted mid-shutdown
  // would race the conn-table reap.
  {
    std::lock_guard<std::mutex> lock(redial_mu_);
    redial_stop_ = true;
  }
  redial_cv_.notify_all();
  if (redial_thread_.joinable()) redial_thread_.join();

  bool loop_started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop_started = loop_started_;
    // Close outboxes first: blocked senders unblock, and the loop's drain
    // sees a fixed amount of work per session.
    for (const auto& [dst, session] : sessions_) session->outbox->Close();
  }

  if (loop_started) {
    loop_.Post([this] { BeginDrain(); });
    if (loop_thread_.joinable()) loop_thread_.join();
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (const auto& c : conns_) {
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
  }
  for (auto& [id, inbox] : inboxes_) {
    (void)id;
    inbox->Close();
  }
}

}  // namespace dema::transport
