/**
 * @file
 * A lightweight callable view for simulator hot paths.
 *
 * `std::function` heap-allocates captures beyond its (tiny,
 * implementation-defined) small buffer and type-erases through two
 * indirections; both costs showed up in host profiles of
 * `VaSpace::forEachBlock`.  FunctionRef replaces it there: a
 * non-owning view of a callable (one pointer plus one function
 * pointer).  The referenced callable must outlive the call — the
 * right shape for "invoke this lambda for each element" parameters,
 * where the callable lives in the caller's frame.
 */

#ifndef UVMD_SIM_FUNCTION_HPP
#define UVMD_SIM_FUNCTION_HPP

#include <memory>
#include <type_traits>
#include <utility>

namespace uvmd::sim {

template <typename Signature>
class FunctionRef;

/**
 * Non-owning reference to a callable with signature R(Args...).
 *
 * Implicitly constructible from any compatible callable lvalue, so
 * call sites keep passing plain lambdas.  Does not extend lifetimes:
 * never store a FunctionRef beyond the statement that created its
 * callable (a dangling temporary would be UB, exactly as with
 * string_view).
 */
template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&fn) noexcept  // NOLINT: implicit by design
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(fn)))),
          call_([](void *obj, Args... args) -> R {
              return (*static_cast<std::add_pointer_t<F>>(obj))(
                  std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_;
    R (*call_)(void *, Args...);
};

}  // namespace uvmd::sim

#endif  // UVMD_SIM_FUNCTION_HPP
