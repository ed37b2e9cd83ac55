// util::FunctionRef — a non-owning reference to a callable, for callbacks
// that run before the call taking them returns (the store engines' read,
// rewrite and for_each). Unlike std::function it never allocates: a lambda
// capturing more than two references would otherwise cost a heap
// allocation on every per-document read.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace fairdms::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Binds `fn`, which must outlive every call through this reference.
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& fn)  // NOLINT: implicit, so call sites pass lambdas
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace fairdms::util
