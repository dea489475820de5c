// Small-buffer callables for engine event actions and per-frame model
// callbacks.
//
// Every scheduled event used to carry a std::function<void()>; the typical
// action captures two or three pointers plus a handful of integers, which
// overflows libstdc++'s 16-byte inline buffer and costs one heap
// allocation *per event* -- tens of millions of them in a 4^6 CG solve.
// SmallFn is a move-only replacement with a 48-byte inline buffer sized so
// that every action in the model stores inline -- the per-frame HSSL
// delivery (wire, epoch, frame id, the frame by value, flip count)
// included.  There is no heap fallback: SmallFn converts only from
// callables that fit the buffer, so an action that outgrows it fails to
// compile at its schedule site.  EventFn, the engine's
// action type, is SmallFn<void()>; the link path's callbacks (a wire's
// receiver and ready callback, the SCU's data sink and handlers, DMA
// completions) are other signatures of the same template.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.h"

namespace qcdoc::sim {

namespace detail {

/// Zero by construction: no action leaves SmallFn's inline buffer.  Kept
/// only because perfbench's end record still reads `pool_blocks`.
struct ActionAllocStats {
  u64 pool_blocks = 0;
};
inline ActionAllocStats action_alloc_stats() noexcept { return {}; }

}  // namespace detail

template <typename Sig>
class SmallFn;

/// Move-only type-erased callable stored in a 48-byte inline buffer.
/// Drop-in for the scheduling subset of std::function: implicit
/// construction from any invocable that fits the buffer, operator(), bool
/// conversion.  Copying is deliberately absent -- an event action is
/// scheduled once and executed once, a link callback registered once and
/// called where it lives.
template <typename R, typename... Args>
class SmallFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  /// Converts from a callable that fits the buffer, is no more aligned than
  /// it, and moves without throwing (moves relocate the target in place).
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, SmallFn> &&
                std::is_invocable_r_v<R, D&, Args...> &&
                sizeof(D) <= kInlineBytes &&
                alignof(D) <= alignof(std::max_align_t) &&
                std::is_nothrow_move_constructible_v<D>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(buf_);
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->call(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*call)(void*, Args...);
    /// Move-construct the target from `src` into `dst`, then destroy the
    /// source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
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
      [](void* p) noexcept { static_cast<D*>(p)->~D(); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The engine's event action: scheduled once, executed once.
using EventFn = SmallFn<void()>;

}  // namespace qcdoc::sim
