/**
 * @file
 * Outlined std::vector growth funnels for audited hot paths.
 *
 * The zero-allocation discipline (docs/api.md "Workspace & memory
 * contract") lets capacity-keeping workspace vectors grow while a
 * working set is still finding its high-water mark; the counting-
 * allocator suite proves the growth converges to zero in steady
 * state. The *static* auditor (tools/rt_audit) cannot see that
 * convergence — it sees relocations — so all hot-path vector
 * operations that may allocate must go through a named symbol the
 * allowlist can exempt. At -O3 GCC inlines the libstdc++ growth
 * helpers (reserve, _M_default_append, even _M_realloc_insert for
 * small element types) straight into the caller, which would leave
 * raw `operator new` relocations in an audited body. These wrappers
 * are QEC_RT_OUTLINE (noinline, not cold: several run on every
 * decode), so every such operation compiles to one call against a
 * `qec::rt::*` symbol — exempted by tools/rt_audit/allow.txt with
 * the warmup-growth justification, and kept honest dynamically by
 * the counting allocator.
 *
 * Inside an audited function, use these instead of the member calls
 * whenever the vector is a capacity-keeping workspace member:
 *
 *     rt::assignFill(v, n, x)      for v.assign(n, x)
 *     rt::assignRange(v, f, l)     for v.assign(f, l)
 *     rt::resizeTo(v, n)           for v.resize(n)
 *     rt::resizeFill(v, n, x)      for v.resize(n, x)
 *     rt::reserveTo(v, n)          for v.reserve(n)
 *     rt::pushBack(v, x)           for v.push_back(x)
 *
 * rt::growTo(v, n) is the by-index scratch idiom on top: it resizes
 * only when a call needs more than any earlier one, and the caller
 * then writes elements [0, count) against its own count (no
 * per-element push_back, no per-call clear or assign).
 *
 * A plain member call in an audited body is how the auditor flags a
 * *stray* container (a temporary vector constructed on the hot
 * path): those must be moved into the workspace, not funneled.
 */

#ifndef QEC_UTIL_RT_GROW_HPP
#define QEC_UTIL_RT_GROW_HPP

#include <cstddef>
#include <vector>

#include "qec/util/realtime.hpp"

namespace qec::rt
{

template <typename T, typename A>
QEC_RT_OUTLINE void
assignFill(std::vector<T, A> &v, size_t n, const T &value)
{
    v.assign(n, value);
}

template <typename T, typename A, typename It>
QEC_RT_OUTLINE void
assignRange(std::vector<T, A> &v, It first, It last)
{
    v.assign(first, last);
}

template <typename T, typename A>
QEC_RT_OUTLINE void
resizeTo(std::vector<T, A> &v, size_t n)
{
    v.resize(n);
}

template <typename T, typename A>
QEC_RT_OUTLINE void
resizeFill(std::vector<T, A> &v, size_t n, const T &value)
{
    v.resize(n, value);
}

template <typename T, typename A>
QEC_RT_OUTLINE void
reserveTo(std::vector<T, A> &v, size_t n)
{
    v.reserve(n);
}

template <typename T, typename A>
QEC_RT_OUTLINE void
pushBack(std::vector<T, A> &v, const T &value)
{
    v.push_back(value);
}

template <typename T, typename A, typename It>
QEC_RT_OUTLINE void
appendRange(std::vector<T, A> &v, It first, It last)
{
    v.insert(v.end(), first, last);
}

/** Grow a by-index scratch array to at least n elements; a no-op
 *  (no call, no zero-fill) once warm. */
template <typename T, typename A>
inline void
growTo(std::vector<T, A> &v, size_t n)
{
    if (v.size() < n) {
        resizeTo(v, n);
    }
}

} // namespace qec::rt

#endif // QEC_UTIL_RT_GROW_HPP
