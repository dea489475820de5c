// Pooled small-buffer callables for engine event actions and per-frame
// model callbacks.
//
// Every scheduled event used to carry a std::function<void()>; the typical
// action captures two or three pointers plus a handful of integers, which
// overflows libstdc++'s 16-byte inline buffer and costs one heap
// allocation *per event* -- tens of millions of them in a 4^6 CG solve.
// SmallFn is a move-only replacement with a 48-byte inline buffer sized so
// that every action in the model stores inline.  Oversized callables fall
// back to a recycling freelist of fixed-size blocks, so even they stop
// touching the heap once the pool is warm.  EventFn, the engine's action
// type, is SmallFn<void()>; the model's per-frame callbacks that fire
// millions of times per solve (e.g. hssl::Hssl::DeliveryFn) use other
// signatures of the same template and share the pool.
//
// The allocation counters are process-global and monotonic; the engine
// snapshots them at construction and reports deltas, and the perf benches
// use them for a count-based (wall-time-free, flake-free) gate that the
// steady state allocates zero heap blocks per event.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.h"

namespace qcdoc::sim {

namespace detail {

/// Fixed block size for the oversized-action pool.  Anything larger still
/// (rare: big by-value captures) falls through to plain operator new, which
/// is counted separately so the zero-alloc gate catches it.
inline constexpr std::size_t kActionPoolBlock = 256;

void* action_alloc(std::size_t bytes);
void action_free(void* p, std::size_t bytes) noexcept;

/// Monotonic process-wide counters.  `pool_blocks` counts fresh blocks
/// carved for the freelist (a warm pool stops growing), `pool_reuses`
/// counts freelist hits, `oversize_allocs` counts actions too big even for
/// a pool block.  Heap traffic per event in steady state is zero iff
/// pool_blocks + oversize_allocs stops moving.
struct ActionAllocStats {
  u64 pool_blocks = 0;
  u64 pool_reuses = 0;
  u64 oversize_allocs = 0;
  /// Heap blocks obtained from the system allocator (not recycled).
  u64 heap_blocks() const { return pool_blocks + oversize_allocs; }
};
ActionAllocStats action_alloc_stats() noexcept;

}  // namespace detail

template <typename Sig>
class SmallFn;

/// Move-only type-erased callable with a 48-byte small-buffer optimization
/// and a pooled heap fallback.  Drop-in for the scheduling subset of
/// std::function: implicit construction from any invocable, operator(),
/// bool conversion.  Copying is deliberately absent -- an event action is
/// scheduled once and executed once, a delivery callback registered once
/// and fired once.
template <typename R, typename... Args>
class SmallFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      heap_ = detail::action_alloc(sizeof(D));
      try {
        ::new (heap_) D(std::forward<F>(f));
      } catch (...) {
        detail::action_free(heap_, sizeof(D));
        heap_ = nullptr;
        throw;
      }
    }
    ops_ = &kOps<D>;
  }

  SmallFn(SmallFn&& o) noexcept : heap_(o.heap_), ops_(o.ops_) {
    if (ops_ != nullptr && heap_ == nullptr) ops_->relocate(buf_, o.buf_);
    o.heap_ = nullptr;
    o.ops_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      heap_ = o.heap_;
      ops_ = o.ops_;
      if (ops_ != nullptr && heap_ == nullptr) ops_->relocate(buf_, o.buf_);
      o.heap_ = nullptr;
      o.ops_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(target());
    if (heap_ != nullptr) {
      detail::action_free(heap_, ops_->size);
      heap_ = nullptr;
    }
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->call(target(), std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*call)(void*, Args...);
    /// Move-construct the target from `src` into `dst`, then destroy the
    /// source.  Only ever used for inline targets, which are restricted to
    /// nothrow-move-constructible types.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    std::size_t size;  ///< allocation size for heap targets
  };

  template <typename D>
  static constexpr Ops kOps{
      [](void* p, Args... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
      sizeof(D)};

  void* target() noexcept { return heap_ != nullptr ? heap_ : buf_; }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

/// The engine's event action: scheduled once, executed once.
using EventFn = SmallFn<void()>;

}  // namespace qcdoc::sim
