#include "harness/jobs/lease_session.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "harness/jobs/cache.hpp"

namespace kop::harness::jobs {

namespace {

std::string default_worker_id() {
  static std::atomic<std::uint64_t> next_session{0};
  char host[256] = "?";
  ::gethostname(host, sizeof(host) - 1);
  return std::string(host) + ":" + std::to_string(::getpid()) + ":" +
         std::to_string(next_session.fetch_add(1));
}

// The coordinator no longer knows this incarnation: it was declared
// dead (its leases are back on the queue), or never said HELLO.
bool needs_hello(const std::string& status) {
  return status == "DEAD" || status == "NOHELLO";
}

}  // namespace

LeaseSession::LeaseSession(const std::string& socket_path, std::string worker)
    : worker_(worker.empty() ? default_worker_id() : std::move(worker)),
      client_(std::make_unique<coord::Client>(socket_path)) {
  const std::int64_t interval_ms =
      std::max<std::int64_t>(client_->hello(worker_).suspect_ms / 3, 50);
  heartbeat_ =
      std::thread([this, interval_ms] { heartbeat_loop(interval_ms); });
}

LeaseSession::~LeaseSession() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  try {
    client_->bye(worker_);
  } catch (...) {
    // The daemon may already be gone; its liveness tracker reclaims.
  }
}

template <typename Send>
coord::Client::Grant LeaseSession::ask(Send send) {
  coord::Client::Grant grant = send();
  if (needs_hello(grant.status)) {
    (void)client_->hello(worker_);
    grant = send();
  }
  if (grant.granted) {
    std::lock_guard<std::mutex> lock(mu_);
    held_[grant.point] = grant.lease_id;
  }
  return grant;
}

bool LeaseSession::try_acquire(const PointSpec& spec) {
  const std::uint64_t hash = spec.content_hash();
  const std::string entry = ResultCache::entry_name(ResultCache::key(spec));
  // Not granted: TAKEN or COMPLETE, someone else's point.
  return ask([&] { return client_->lease(worker_, hash, entry); }).granted;
}

coord::Client::Grant LeaseSession::next() {
  return ask([this] { return client_->next(worker_); });
}

void LeaseSession::complete(const PointSpec& spec) {
  const std::uint64_t hash = spec.content_hash();
  std::uint64_t lease_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = held_.find(hash);
    if (it == held_.end()) return;
    lease_id = it->second;
    held_.erase(it);
  }
  // OK and OK-STALE both mean the completion was recorded; a false
  // return (the point raced to complete elsewhere) needs no action --
  // the entry this worker stored is byte-identical anyway.
  (void)client_->done(worker_, lease_id, hash);
}

void LeaseSession::heartbeat_loop(std::int64_t interval_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                            [this] { return stop_; })) {
    lock.unlock();
    try {
      if (needs_hello(client_->request("PING " + worker_))) {
        (void)client_->hello(worker_);
      }
    } catch (...) {
      return;  // Connection lost: the next lease request reports it.
    }
    lock.lock();
  }
}

}  // namespace kop::harness::jobs
