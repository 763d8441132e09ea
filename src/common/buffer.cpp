// Slab-pool arena and reference-counted buffer slices (see buffer.h).
#include "common/buffer.h"

#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define PBPAIR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PBPAIR_ASAN 1
#endif
#endif

#if defined(PBPAIR_ASAN)
#include <sanitizer/asan_interface.h>
#define PB_POISON(ptr, size) __asan_poison_memory_region((ptr), (size))
#define PB_UNPOISON(ptr, size) __asan_unpoison_memory_region((ptr), (size))
#else
#define PB_POISON(ptr, size) ((void)(ptr), (void)(size))
#define PB_UNPOISON(ptr, size) ((void)(ptr), (void)(size))
#endif

namespace pbpair::common {
namespace {

std::atomic<std::uint64_t> g_copied_bytes{0};
std::atomic<std::uint64_t> g_legacy_bytes{0};

constexpr std::size_t kAlign = alignof(internal::RangeHeader);

std::size_t align_up(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

void ledger_copied(std::uint64_t bytes) {
  g_copied_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void ledger_legacy(std::uint64_t bytes) {
  g_legacy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

CopyLedgerSnapshot copy_ledger() {
  CopyLedgerSnapshot snapshot;
  snapshot.copied_bytes = g_copied_bytes.load(std::memory_order_relaxed);
  snapshot.legacy_bytes = g_legacy_bytes.load(std::memory_order_relaxed);
  return snapshot;
}

void reset_copy_ledger() {
  g_copied_bytes.store(0, std::memory_order_relaxed);
  g_legacy_bytes.store(0, std::memory_order_relaxed);
}

namespace internal {

// Drops one reference; on the allocation's last release decrements the
// slab's live count and, when the slab fully drains, offers it back to the
// arena's free list. Lock-free except for that final hand-back.
void release_range(RangeHeader* header) {
  if (header->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  Slab* slab = header->slab;
  if (slab->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    slab->arena->maybe_recycle(slab);
  }
}

}  // namespace internal

BufferArena::BufferArena(std::size_t slab_bytes)
    : slab_bytes_(slab_bytes < 1024 ? 1024 : slab_bytes) {}

BufferArena::~BufferArena() {
  // A BufferRef outliving its arena would be a dangling view; fail loudly.
  PB_CHECK(live_allocations() == 0);
  for (const std::unique_ptr<internal::Slab>& slab : slabs_) {
    PB_UNPOISON(slab->memory.get(), slab->size);
  }
}

BufferArena& BufferArena::scratch() {
  // Intentionally leaked: refs created from temporaries (vector
  // conversions in tests and cold paths) stay valid for process lifetime.
  static BufferArena* arena = new BufferArena();
  return *arena;
}

void BufferArena::maybe_recycle(internal::Slab* slab) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slab == current_ || slab->used == 0 ||
      slab->live.load(std::memory_order_acquire) != 0) {
    return;
  }
  slab->used = 0;
  PB_POISON(slab->memory.get(), slab->size);
  free_.push_back(slab);
  ++stats_.slabs_recycled;
}

BufferRef BufferArena::allocate(std::size_t size) {
  if (size == 0) {
    return BufferRef();
  }
  const std::size_t need = align_up(sizeof(internal::RangeHeader) + size);
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_ == nullptr || current_->used + need > current_->size) {
    // Retire the current slab; if everything in it already released, it
    // can go straight back to the free list.
    if (current_ != nullptr && current_->used > 0 &&
        current_->live.load(std::memory_order_acquire) == 0) {
      current_->used = 0;
      PB_POISON(current_->memory.get(), current_->size);
      free_.push_back(current_);
      ++stats_.slabs_recycled;
    }
    current_ = nullptr;
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i]->size >= need) {
        current_ = free_[i];
        free_[i] = free_.back();
        free_.pop_back();
        break;
      }
    }
    if (current_ == nullptr) {
      auto slab = std::make_unique<internal::Slab>();
      slab->size = need > slab_bytes_ ? need : slab_bytes_;
      slab->memory = std::make_unique<std::uint8_t[]>(slab->size);
      slab->arena = this;
      PB_POISON(slab->memory.get(), slab->size);
      current_ = slab.get();
      slabs_.push_back(std::move(slab));
      ++stats_.slabs_created;
    }
  }
  std::uint8_t* base = current_->memory.get() + current_->used;
  current_->used += need;
  current_->live.fetch_add(1, std::memory_order_relaxed);
  ++stats_.allocations;
  stats_.bytes_allocated += size;
  PB_UNPOISON(base, sizeof(internal::RangeHeader) + size);
  auto* header = new (base) internal::RangeHeader;
  header->refs.store(1, std::memory_order_relaxed);
  header->capacity = static_cast<std::uint32_t>(size);
  header->slab = current_;
  return BufferRef(header, base + sizeof(internal::RangeHeader), size);
}

BufferRef BufferArena::copy(const std::uint8_t* data, std::size_t size) {
  BufferRef ref = allocate(size);
  if (size > 0) {
    std::memcpy(ref.mutable_data(), data, size);
    ledger_copied(size);
  }
  return ref;
}

BufferArena::Stats BufferArena::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t BufferArena::live_allocations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t live = 0;
  for (const std::unique_ptr<internal::Slab>& slab : slabs_) {
    live += slab->live.load(std::memory_order_acquire);
  }
  return live;
}

BufferRef::BufferRef(const std::vector<std::uint8_t>& bytes) {
  if (!bytes.empty()) {
    *this = BufferArena::scratch().copy(bytes.data(), bytes.size());
  }
}

BufferRef::BufferRef(const std::uint8_t* data, std::size_t size) {
  if (size > 0) {
    *this = BufferArena::scratch().copy(data, size);
  }
}

BufferRef::BufferRef(const BufferRef& other)
    : hdr_(other.hdr_), data_(other.data_), size_(other.size_) {
  if (hdr_ != nullptr) {
    hdr_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

BufferRef& BufferRef::operator=(const BufferRef& other) {
  if (this == &other) {
    return *this;
  }
  if (other.hdr_ != nullptr) {
    other.hdr_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  release();
  hdr_ = other.hdr_;
  data_ = other.data_;
  size_ = other.size_;
  return *this;
}

BufferRef::BufferRef(BufferRef&& other) noexcept
    : hdr_(other.hdr_), data_(other.data_), size_(other.size_) {
  other.hdr_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

BufferRef& BufferRef::operator=(BufferRef&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  release();
  hdr_ = other.hdr_;
  data_ = other.data_;
  size_ = other.size_;
  other.hdr_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

BufferRef::~BufferRef() { release(); }

void BufferRef::release() {
  if (hdr_ != nullptr) {
    internal::release_range(hdr_);
    hdr_ = nullptr;
  }
  data_ = nullptr;
  size_ = 0;
}

BufferArena& BufferRef::home_arena() const {
  return hdr_ != nullptr ? *hdr_->slab->arena : BufferArena::scratch();
}

// Replaces the backing storage with a fresh exclusive allocation of
// `new_size` bytes, preserving the first `keep` bytes of the current view.
void BufferRef::unshare(std::size_t keep, std::size_t new_size) {
  BufferArena& arena = home_arena();
  BufferRef fresh = arena.allocate(new_size);
  if (keep > 0) {
    std::memcpy(fresh.data_, data_, keep);
    ledger_copied(keep);
  }
  *this = std::move(fresh);
}

std::uint8_t* BufferRef::mutable_data() {
  if (hdr_ == nullptr) {
    return nullptr;
  }
  if (hdr_->refs.load(std::memory_order_acquire) != 1) {
    unshare(size_, size_);
  }
  return data_;
}

void BufferRef::resize(std::size_t new_size) {
  if (new_size <= size_) {
    size_ = new_size;  // narrow the view; bytes stay shared
    return;
  }
  const std::uint8_t* base =
      hdr_ != nullptr
          ? reinterpret_cast<const std::uint8_t*>(hdr_ + 1)
          : nullptr;
  const bool exclusive =
      hdr_ != nullptr && hdr_->refs.load(std::memory_order_acquire) == 1;
  if (exclusive &&
      static_cast<std::size_t>(data_ - base) + new_size <= hdr_->capacity) {
    std::memset(data_ + size_, 0, new_size - size_);
    size_ = new_size;
    return;
  }
  const std::size_t keep = size_;
  unshare(keep, new_size);
  std::memset(data_ + keep, 0, new_size - keep);
}

void BufferRef::assign(std::size_t count, std::uint8_t value) {
  clear();
  resize(count);
  if (count > 0) {
    std::memset(data_, value, count);
  }
}

void BufferRef::clear() { release(); }

void BufferRef::assign_bytes(const std::uint8_t* data, std::size_t size) {
  if (size == 0) {
    release();
    return;
  }
  // Guard against assigning from our own storage before we release it.
  if (hdr_ != nullptr && data >= reinterpret_cast<std::uint8_t*>(hdr_ + 1) &&
      data < reinterpret_cast<std::uint8_t*>(hdr_ + 1) + hdr_->capacity) {
    const std::vector<std::uint8_t> tmp(data, data + size);
    release();
    *this = home_arena().copy(tmp.data(), tmp.size());
    return;
  }
  BufferArena& arena = home_arena();
  release();
  *this = arena.copy(data, size);
}

void BufferRef::append(const BufferRef& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    *this = other;  // share, zero copy
    return;
  }
  if (hdr_ != nullptr && hdr_ == other.hdr_ &&
      data_ + size_ == other.data_) {
    size_ += other.size_;  // contiguous continuation: just widen the view
    return;
  }
  const std::uint8_t* base = reinterpret_cast<const std::uint8_t*>(hdr_ + 1);
  const std::size_t old_size = size_;  // unshare() resets size_ to `grown`
  const std::size_t grown = old_size + other.size_;
  const bool exclusive = hdr_->refs.load(std::memory_order_acquire) == 1;
  if (!(exclusive &&
        static_cast<std::size_t>(data_ - base) + grown <= hdr_->capacity)) {
    unshare(old_size, grown);
  }
  std::memcpy(data_ + old_size, other.data_, other.size_);
  ledger_copied(other.size_);
  size_ = grown;
}

BufferRef BufferRef::slice(std::size_t offset, std::size_t len) const {
  PB_CHECK(offset + len <= size_);
  if (len == 0) {
    return BufferRef();
  }
  hdr_->refs.fetch_add(1, std::memory_order_relaxed);
  return BufferRef(hdr_, data_ + offset, len);
}

bool BufferRef::operator==(const BufferRef& other) const {
  return size_ == other.size_ &&
         (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
}

bool BufferRef::operator==(const std::vector<std::uint8_t>& v) const {
  return size_ == v.size() &&
         (size_ == 0 || std::memcmp(data_, v.data(), size_) == 0);
}

}  // namespace pbpair::common
