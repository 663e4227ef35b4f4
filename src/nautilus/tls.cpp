#include "nautilus/tls.hpp"

#include "nautilus/buddy.hpp"

namespace kop::nautilus {

std::uint64_t TlsSupport::create_block(const TlsTemplate& tmpl) {
  if (tmpl.total() == 0) return 0;
  return allocator_->alloc(tmpl.total());
}

void TlsSupport::destroy_block(std::uint64_t fsbase) {
  if (fsbase != 0) allocator_->free(fsbase);
}

void TlsSupport::set_fsbase(std::uint64_t thread_id, std::uint64_t fsbase) {
  fsbase_by_thread_[thread_id] = fsbase;
}

std::uint64_t TlsSupport::fsbase(std::uint64_t thread_id) const {
  auto it = fsbase_by_thread_.find(thread_id);
  return it == fsbase_by_thread_.end() ? 0 : it->second;
}

}  // namespace kop::nautilus
