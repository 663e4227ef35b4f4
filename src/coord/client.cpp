#include "coord/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace kop::coord {

namespace {

// MSG_NOSIGNAL so a daemon that exited (e.g. --exit-when-drained won
// the race against our BYE) surfaces as an exception, not SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::int64_t to_ms(const std::string& s) {
  return static_cast<std::int64_t>(std::strtoll(s.c_str(), nullptr, 10));
}

/// "key=value" token lookup in a HELLO reply.
std::int64_t field_ms(const std::vector<std::string>& tokens,
                      const std::string& key) {
  for (const auto& t : tokens) {
    if (t.rfind(key + "=", 0) == 0) return to_ms(t.substr(key.size() + 1));
  }
  return 0;
}

}  // namespace

Client::Client(std::string address) : path_(std::move(address)) {
  Address addr;
  std::string err;
  if (!parse_address(path_, &addr, &err)) {
    throw std::runtime_error("coord: " + err);
  }
  if (addr.kind == Address::Kind::kUnix) {
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sun.sun_path)) {
      throw std::runtime_error("coord: bad socket path '" + path_ + "'");
    }
    std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error(std::string("coord: socket: ") +
                               std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&sun),
                  sizeof(sun)) != 0) {
      const std::string cerr = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("coord: cannot connect to " + path_ + ": " +
                               cerr);
    }
    return;
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(addr.port);
  const int rc = ::getaddrinfo(addr.host.c_str(), service.c_str(), &hints,
                               &res);
  if (rc != 0) {
    throw std::runtime_error("coord: cannot resolve " + addr.host + ": " +
                             ::gai_strerror(rc));
  }
  std::string cerr = "no address";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd_ < 0) {
      cerr = std::strerror(errno);
      continue;
    }
    if (::connect(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
    cerr = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) {
    throw std::runtime_error("coord: cannot connect to " + path_ + ": " +
                             cerr);
  }
  // Request lines are tiny; don't let Nagle add 40ms to every lease.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::read_line_locked() {
  for (;;) {
    const std::size_t nl = rxbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = rxbuf_.substr(0, nl);
      rxbuf_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("coord: connection to " + path_ +
                               " closed mid-response");
    }
    rxbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Client::read_bytes_locked(std::size_t n) {
  while (rxbuf_.size() < n) {
    char chunk[4096];
    const ssize_t r = ::read(fd_, chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      throw std::runtime_error("coord: connection to " + path_ +
                               " closed mid-body");
    }
    rxbuf_.append(chunk, static_cast<std::size_t>(r));
  }
  std::string out = rxbuf_.substr(0, n);
  rxbuf_.erase(0, n);
  return out;
}

std::string Client::request(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!write_all(fd_, line + "\n")) {
    throw std::runtime_error("coord: write to " + path_ + " failed");
  }
  ++round_trips_;
  std::string response = read_line_locked();
  if (response.rfind("HIT ", 0) == 0) {
    const std::size_t n = static_cast<std::size_t>(
        std::strtoull(response.c_str() + 4, nullptr, 10));
    response += "\n" + read_bytes_locked(n);
    // The server terminates the whole HIT frame with one '\n'.
    (void)read_line_locked();
  }
  return response;
}

Client::HelloReply Client::hello(const std::string& worker) {
  const std::string r = request("HELLO " + worker);
  const auto t = split_tokens(r);
  if (t.size() < 4 || t[0] != "OK") {
    throw std::runtime_error("coord: HELLO rejected: " + r);
  }
  HelloReply out;
  out.incarnation = static_cast<std::uint64_t>(to_ms(t[1]));
  out.suspect_ms = field_ms(t, "suspect");
  out.dead_ms = field_ms(t, "dead");
  return out;
}

namespace {

Client::Grant parse_grant(const std::string& r) {
  Client::Grant g;
  const auto t = split_tokens(r);
  if (t.empty()) {
    g.status = "ERR empty";
    return g;
  }
  if (t[0] == "GRANT" && t.size() >= 4 && parse_hex16(t[1], &g.point) &&
      parse_hex16(t[2], &g.lease_id)) {
    g.granted = true;
    g.status = "GRANT";
    g.payload = t[3] == "-" ? "" : t[3];
    return g;
  }
  g.status = t[0];
  return g;
}

}  // namespace

Client::Grant Client::next(const std::string& worker) {
  return parse_grant(request("NEXT " + worker));
}

Client::Grant Client::lease(const std::string& worker, std::uint64_t hash,
                            const std::string& entry) {
  std::string line = "LEASE " + worker + " " + to_hex16(hash);
  if (!entry.empty()) line += " " + entry;
  return parse_grant(request(line));
}

bool Client::done(const std::string& worker, std::uint64_t lease_id,
                  std::uint64_t hash) {
  const std::string r = request("DONE " + worker + " " + to_hex16(lease_id) +
                                " " + to_hex16(hash));
  return r == "OK" || r == "OK-STALE";
}

void Client::bye(const std::string& worker) { (void)request("BYE " + worker); }

Client::GetReply Client::get(std::uint64_t hash) {
  const std::string r = request("GET " + to_hex16(hash));
  GetReply out;
  if (r.rfind("HIT ", 0) == 0) {
    out.status = "HIT";
    const std::size_t body = r.find('\n');
    out.doc = body == std::string::npos ? "" : r.substr(body + 1);
    return out;
  }
  const auto t = split_tokens(r);
  out.status = t.empty() ? "ERR" : t[0];
  if (t.size() > 1) out.detail = t[1];
  return out;
}

Client::GetReply Client::read_get_reply_locked() {
  const std::string header = read_line_locked();
  GetReply out;
  if (header.rfind("HIT ", 0) == 0) {
    out.status = "HIT";
    const std::size_t n = static_cast<std::size_t>(
        std::strtoull(header.c_str() + 4, nullptr, 10));
    out.doc = read_bytes_locked(n);
    // One '\n' always follows a HIT body: the batch separator, or the
    // frame terminator for the final sub-response.
    (void)read_line_locked();
    return out;
  }
  const auto t = split_tokens(header);
  out.status = t.empty() ? "ERR" : t[0];
  if (t.size() > 1) out.detail = t[1];
  return out;
}

std::vector<Client::GetReply> Client::mget(
    const std::vector<std::uint64_t>& hashes) {
  std::vector<GetReply> out;
  out.reserve(hashes.size());
  std::size_t start = 0;
  while (start < hashes.size()) {
    const std::size_t count =
        std::min(kMgetMaxHashes, hashes.size() - start);
    std::string line = "MGET";
    for (std::size_t i = 0; i < count; ++i) {
      line += " " + to_hex16(hashes[start + i]);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!write_all(fd_, line + "\n")) {
      throw std::runtime_error("coord: write to " + path_ + " failed");
    }
    ++round_trips_;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(read_get_reply_locked());
    }
    start += count;
  }
  return out;
}

std::string Client::stats() { return request("STATS"); }

void Client::shutdown() { (void)request("SHUTDOWN"); }

std::uint64_t Client::round_trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return round_trips_;
}

}  // namespace kop::coord
