// Non-owning reference to a callable, for hot paths that only invoke a
// caller's lambda while the caller waits (fork-join bodies, plan-cache
// builders). std::function would copy the lambda and heap-allocate once
// its captures outgrow the small-object buffer; a FunctionRef is two
// words and never allocates.
//
// Lifetime: it refers to the callable, so the callable must outlive every
// call. Bind it to a named object or pass it as an argument; never store
// one built from a temporary past the full expression.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace smm {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Null: operator bool is false and calling it is undefined.
  FunctionRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  using Thunk = R (*)(void*, Args...);

  /// Rebuilds a reference from object() and thunk(): the form in which
  /// one crosses threads through relaxed atomics.
  FunctionRef(void* obj, Thunk call) noexcept : obj_(obj), call_(call) {}
  [[nodiscard]] void* object() const { return obj_; }
  [[nodiscard]] Thunk thunk() const { return call_; }

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  Thunk call_ = nullptr;
};

}  // namespace smm
