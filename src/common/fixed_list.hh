/**
 * @file
 * Fixed-capacity list stored inline, for the short per-call results of
 * the cycle path (routing candidates, minimal directions) that would
 * otherwise cost a heap allocation on every call.
 */

#ifndef NORD_COMMON_FIXED_LIST_HH
#define NORD_COMMON_FIXED_LIST_HH

#include <array>
#include <cstddef>

#include "common/log.hh"

namespace nord {

/**
 * At most @p N elements of @p T in an inline array; the subset of the
 * std::vector interface its callers use.
 */
template <typename T, std::size_t N>
class FixedList
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void push_back(const T &v)
    {
        NORD_DCHECK(size_ < N, "FixedList capacity %zu exceeded", N);
        items_[size_++] = v;
    }

    T &operator[](std::size_t i) { return items_[i]; }
    const T &operator[](std::size_t i) const { return items_[i]; }
    T &front() { return items_[0]; }
    const T &front() const { return items_[0]; }

    T *begin() { return items_.data(); }
    T *end() { return items_.data() + size_; }
    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }

  private:
    std::array<T, N> items_{};
    std::size_t size_ = 0;
};

}  // namespace nord

#endif  // NORD_COMMON_FIXED_LIST_HH
