#pragma once
// One list per counter struct: `S::counterFields()` returns an ordered
// tuple of (JSON key, member pointer) entries, and the struct's JSON, `+=`
// and `-` all come from it. Values print with `os << v`, nested counter
// structs as objects; std::arrays add element by element. The one hook is
// a writer: `field(key, member, write)` prints write(os, value), and
// `derived(key, write)` prints write(os, s) and is left out of sums.

#include <cstddef>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

namespace aesifc::counters {

template <class S>
concept CounterStruct = requires { S::counterFields(); };

// `member` is nullptr in a derived entry, `write` in a plain field.
template <class P, class W>
struct Entry {
  const char* key;
  P member;
  W write;
};

template <class P, class W = std::nullptr_t>
constexpr Entry<P, W> field(const char* key, P member, W write = nullptr) {
  return {key, member, write};
}

template <class W>
constexpr Entry<std::nullptr_t, W> derived(const char* key, W write) {
  return {key, nullptr, write};
}

// `{"key":value,...}` in list order.
template <class S, class Fields>
void writeJson(std::ostream& os, const S& s, const Fields& fields) {
  const char* sep = "";
  auto one = [&](const auto& f) {
    os << sep << '"' << f.key << "\":";
    sep = ",";
    if constexpr (std::is_null_pointer_v<decltype(f.member)>) {
      f.write(os, s);
    } else if constexpr (!std::is_null_pointer_v<decltype(f.write)>) {
      f.write(os, s.*f.member);
    } else if constexpr (CounterStruct<
                             std::remove_cvref_t<decltype(s.*f.member)>>) {
      writeJson(os, s.*f.member, (s.*f.member).counterFields());
    } else {
      os << s.*f.member;
    }
  };
  os << '{';
  std::apply([&](const auto&... f) { (one(f), ...); }, fields);
  os << '}';
}

template <CounterStruct S>
std::string toJson(const S& s) {
  std::ostringstream os;
  writeJson(os, s, S::counterFields());
  return os.str();
}

namespace detail {
// op(a.m, b.m) for every listed member m, through arrays and nested lists.
template <class T, class Op>
void combine(T& a, const T& b, Op op) {
  if constexpr (CounterStruct<T>) {
    auto one = [&](const auto& f) {
      if constexpr (!std::is_null_pointer_v<decltype(f.member)>)
        combine(a.*f.member, b.*f.member, op);
    };
    std::apply([&](const auto&... f) { (one(f), ...); }, T::counterFields());
  } else if constexpr (requires { a.size(); }) {
    for (std::size_t i = 0; i < a.size(); ++i) combine(a[i], b[i], op);
  } else {
    op(a, b);
  }
}
}  // namespace detail

template <CounterStruct S>
S& addTo(S& a, const S& b) {
  detail::combine(a, b, [](auto& x, const auto& y) { x += y; });
  return a;
}

template <CounterStruct S>
S minus(S a, const S& b) {
  detail::combine(a, b, [](auto& x, const auto& y) { x -= y; });
  return a;
}

// True when the listed members cover every byte of S. On a struct of
// uint64_t counters, `static_assert(counters::listsEveryByte<S>())` fails
// to compile when a counter is declared without a list entry.
template <CounterStruct S>
constexpr bool listsEveryByte() {
  auto bytes = [](const auto& f) -> std::size_t {
    if constexpr (std::is_null_pointer_v<decltype(f.member)>) {
      return 0;
    } else {
      return sizeof(std::declval<S&>().*f.member);
    }
  };
  return std::apply([&](const auto&... f) { return (bytes(f) + ... + 0); },
                    S::counterFields()) == sizeof(S);
}

}  // namespace aesifc::counters
