#include "coord/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace kop::coord {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

std::int64_t Server::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Server::bind_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("coord: bad socket path '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("coord: socket: ") +
                             std::strerror(errno));
  }
  // A previous daemon's socket file would make bind fail; it is dead by
  // definition (we are the daemon), so remove it.
  ::unlink(path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("coord: cannot listen on " + path + ": " + err);
  }
  unlink_path_ = path;
  bound_address_ = path;
}

void Server::bind_tcp(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  const std::string service = std::to_string(port);
  addrinfo* res = nullptr;
  const char* node =
      (host == "*" || host == "0.0.0.0") ? nullptr : host.c_str();
  const int rc = ::getaddrinfo(node, service.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("coord: cannot resolve " + host + ": " +
                             ::gai_strerror(rc));
  }
  listen_fd_ = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (listen_fd_ < 0) {
    ::freeaddrinfo(res);
    throw std::runtime_error(std::string("coord: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, res->ai_addr, res->ai_addrlen) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::freeaddrinfo(res);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("coord: cannot listen on " + host + ":" +
                             std::to_string(port) + ": " + err);
  }
  ::freeaddrinfo(res);
  // Report the port the kernel actually assigned (":0" = ephemeral).
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  int actual = port;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    actual = static_cast<int>(ntohs(bound.sin_port));
  }
  bound_address_ = host + ":" + std::to_string(actual);
}

Server::Server(Coordinator* coord, ServerOptions opt)
    : coord_(coord), opt_(std::move(opt)) {
  Address addr;
  std::string err;
  if (!parse_address(opt_.address, &addr, &err)) {
    throw std::runtime_error("coord: " + err);
  }
  if (addr.kind == Address::Kind::kUnix) {
    bind_unix(addr.path);
  } else {
    bind_tcp(addr.host, addr.port);
  }
  set_nonblocking(listen_fd_);
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const auto& [fd, conn] : conns_) ::close(fd);
  if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
}

bool Server::flush(int fd, Conn& conn, std::int64_t now) {
  while (!conn.wbuf.empty()) {
    const ssize_t n =
        ::send(fd, conn.wbuf.data(), conn.wbuf.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.wbuf.erase(0, static_cast<std::size_t>(n));
    conn.last_progress_ms = now;
  }
  return true;
}

bool Server::process_lines(Conn& conn, std::int64_t now) {
  std::size_t nl;
  while ((nl = conn.rbuf.find('\n')) != std::string::npos) {
    std::string line = conn.rbuf.substr(0, nl);
    conn.rbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    conn.wbuf += coord_->handle_line(line, now);
    conn.wbuf += '\n';
    if (coord_->shutdown_requested()) break;
  }
  // Runaway un-terminated line: no request is this big.
  if (conn.rbuf.size() > 1 << 20) return false;
  return true;
}

void Server::run() {
  auto close_fd = [&](int fd) {
    ::close(fd);
    conns_.erase(fd);
  };

  while (!stop_.load()) {
    const std::int64_t tick_now = now_ms();
    coord_->tick(tick_now);
    if (coord_->shutdown_requested()) break;
    if (opt_.exit_when_drained && coord_->drained()) break;

    // Reap connections stalled mid-frame (partial request in, or reply
    // bytes we cannot push out).  A quiet connection with empty buffers
    // is healthy by definition and never reaped here.
    if (opt_.io_timeout_ms > 0) {
      for (auto it = conns_.begin(); it != conns_.end();) {
        const Conn& c = it->second;
        const bool mid_frame = !c.rbuf.empty() || !c.wbuf.empty();
        if (mid_frame && tick_now - c.last_progress_ms > opt_.io_timeout_ms) {
          ::close(it->first);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      const short events =
          conn.wbuf.empty() ? POLLIN : static_cast<short>(POLLIN | POLLOUT);
      fds.push_back({fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), opt_.poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;

    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        Conn conn;
        conn.last_progress_ms = now_ms();
        conns_.emplace(fd, std::move(conn));
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      const std::int64_t now = now_ms();
      bool broken = (fds[i].revents & POLLERR) != 0;

      if (!broken && (fds[i].revents & (POLLIN | POLLHUP)) != 0) {
        for (;;) {
          char chunk[4096];
          const ssize_t n = ::read(fd, chunk, sizeof(chunk));
          if (n > 0) {
            conn.rbuf.append(chunk, static_cast<std::size_t>(n));
            conn.last_progress_ms = now;
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          broken = true;  // EOF or hard error
          break;
        }
        if (!conn.rbuf.empty() && !process_lines(conn, now)) broken = true;
        // A half-closed peer still gets the replies to what it sent;
        // drop it only once nothing is owed.
        if (broken && !conn.wbuf.empty()) broken = false;
      }
      if (!broken && !flush(fd, conn, now)) broken = true;
      if (!broken && conn.wbuf.size() > opt_.max_write_buffer) {
        // Slow reader: it stopped draining replies.  Cut it loose; its
        // leases come back via liveness/TTL reclaim.
        broken = true;
      }
      if (broken) close_fd(fd);
      if (coord_->shutdown_requested()) break;
    }
  }
  for (const auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
}

}  // namespace kop::coord
