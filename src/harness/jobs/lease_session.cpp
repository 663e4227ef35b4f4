#include "harness/jobs/lease_session.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

#include "coord/client.hpp"
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

}  // namespace

LeaseSession::LeaseSession(const std::string& socket_path, std::string worker)
    : worker_(worker.empty() ? default_worker_id() : std::move(worker)),
      client_(std::make_unique<coord::Client>(socket_path)) {
  const auto hello = client_->hello(worker_);
  if (hello.ttl_ms > 0) ttl_ms_ = hello.ttl_ms;
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
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

std::size_t LeaseSession::prefetch(const std::vector<PointSpec>& specs) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(specs.size());
  for (const auto& spec : specs) hashes.push_back(spec.content_hash());
  const auto replies = client_->mget(hashes);
  std::size_t complete = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < replies.size() && i < hashes.size(); ++i) {
    // HIT and COMPLETE are both terminal; PENDING/UNKNOWN points still
    // go through the normal LEASE path (their state can change under
    // us, completion cannot un-happen).
    if (replies[i].status == "HIT" || replies[i].status == "COMPLETE") {
      known_complete_.insert(hashes[i]);
      ++complete;
    }
  }
  return complete;
}

bool LeaseSession::try_acquire(const PointSpec& spec) {
  const std::uint64_t hash = spec.content_hash();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (known_complete_.count(hash) != 0) return false;
  }
  const auto grant = client_->lease(
      worker_, hash, "kop-" + hex16(ResultCache::key(spec)) + ".json");
  if (!grant.granted) return false;  // TAKEN or COMPLETE: someone else's
  std::lock_guard<std::mutex> lock(mu_);
  held_[hash] = grant.lease_id;
  return true;
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

void LeaseSession::heartbeat_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto interval =
      std::chrono::milliseconds(std::max<std::int64_t>(ttl_ms_ / 3, 50));
  while (!stop_cv_.wait_for(lock, interval, [this] { return stop_; })) {
    const std::vector<std::uint64_t> ids = [&] {
      std::vector<std::uint64_t> v;
      v.reserve(held_.size());
      for (const auto& [hash, id] : held_) v.push_back(id);
      return v;
    }();
    lock.unlock();
    try {
      if (ids.empty()) {
        (void)client_->request("PING " + worker_);
      } else {
        // A failed renewal means the lease was reclaimed; the eventual
        // DONE is still accepted (OK-STALE) while the point is open.
        for (const auto id : ids) (void)client_->renew(worker_, id);
      }
    } catch (...) {
      // Connection lost: stop heartbeating, let leases lapse.
      lock.lock();
      return;
    }
    lock.lock();
  }
}

}  // namespace kop::harness::jobs
