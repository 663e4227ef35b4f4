#include "coord/lease.hpp"

#include <algorithm>

namespace kop::coord {

bool LeaseTable::add_point(PointInfo info) {
  const std::uint64_t hash = info.hash;
  const auto [it, inserted] = points_.try_emplace(hash);
  if (!inserted) return false;
  it->second.info = std::move(info);
  queue_.push_back(hash);
  return true;
}

bool LeaseTable::mark_complete(std::uint64_t hash) {
  const auto it = points_.find(hash);
  if (it == points_.end()) return false;
  PointRec& rec = it->second;
  if (rec.state == PointState::kComplete) return true;
  if (rec.state == PointState::kLeased) {
    leases_.erase(rec.lease_id);
  } else {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), hash),
                 queue_.end());
  }
  rec.state = PointState::kComplete;
  rec.lease_id = 0;
  ++complete_count_;
  return true;
}

Lease* LeaseTable::issue(std::uint64_t hash, const std::string& worker) {
  PointRec& rec = points_.at(hash);
  const std::uint64_t id = next_lease_id_++;
  Lease& lease = leases_[id];
  lease.id = id;
  lease.point = hash;
  lease.worker = worker;
  rec.state = PointState::kLeased;
  rec.lease_id = id;
  return &lease;
}

GrantOutcome LeaseTable::grant_next(const std::string& worker, Lease* lease) {
  if (queue_.empty()) {
    return drained() ? GrantOutcome::kComplete : GrantOutcome::kIdle;
  }
  const std::uint64_t hash = queue_.front();
  queue_.pop_front();
  *lease = *issue(hash, worker);
  return GrantOutcome::kGranted;
}

GrantOutcome LeaseTable::grant(std::uint64_t hash, const std::string& worker,
                               Lease* lease) {
  const auto it = points_.find(hash);
  if (it == points_.end()) return GrantOutcome::kUnknown;
  PointRec& rec = it->second;
  switch (rec.state) {
    case PointState::kComplete:
      return GrantOutcome::kComplete;
    case PointState::kLeased:
      return GrantOutcome::kTaken;
    case PointState::kQueued:
      break;
  }
  queue_.erase(std::remove(queue_.begin(), queue_.end(), hash), queue_.end());
  *lease = *issue(hash, worker);
  return GrantOutcome::kGranted;
}

std::vector<std::uint64_t> LeaseTable::reclaim_worker(
    const std::string& worker) {
  std::vector<std::uint64_t> reclaimed;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.worker != worker) {
      ++it;
      continue;
    }
    const std::uint64_t hash = it->second.point;
    PointRec& rec = points_.at(hash);
    rec.state = PointState::kQueued;
    rec.lease_id = 0;
    queue_.push_back(hash);
    reclaimed.push_back(hash);
    it = leases_.erase(it);
  }
  return reclaimed;
}

PointState LeaseTable::point_state(std::uint64_t hash) const {
  const auto it = points_.find(hash);
  return it == points_.end() ? PointState::kQueued : it->second.state;
}

const PointInfo* LeaseTable::point_info(std::uint64_t hash) const {
  const auto it = points_.find(hash);
  return it == points_.end() ? nullptr : &it->second.info;
}

std::vector<std::uint64_t> LeaseTable::point_hashes() const {
  std::vector<std::uint64_t> out;
  out.reserve(points_.size());
  for (const auto& [hash, rec] : points_) out.push_back(hash);
  return out;
}

std::vector<std::uint64_t> LeaseTable::queued_hashes() const {
  return {queue_.begin(), queue_.end()};
}

const Lease* LeaseTable::lease_by_id(std::uint64_t id) const {
  const auto it = leases_.find(id);
  return it == leases_.end() ? nullptr : &it->second;
}

std::string LeaseTable::debug_dump() const {
  static const char* state_names[] = {"queued", "leased", "complete"};
  std::string out = "next_lease=" + std::to_string(next_lease_id_) + "\n";
  for (const auto& [hash, rec] : points_) {
    out += "point " + std::to_string(hash) + " " +
           state_names[static_cast<int>(rec.state)] + " entry=" +
           rec.info.entry + " payload=" + rec.info.payload +
           " label=" + rec.info.label + "\n";
  }
  out += "queue";
  for (std::uint64_t hash : queue_) out += " " + std::to_string(hash);
  out += "\n";
  for (const auto& [id, lease] : leases_) {
    out += "lease " + std::to_string(id) + " point=" +
           std::to_string(lease.point) + " worker=" + lease.worker + "\n";
  }
  return out;
}

}  // namespace kop::coord
