// The config field tables (core/config_fields.hpp): every leaf of HostConfig,
// C2MSpec and P2MSpec is visited exactly once, changing any one leaf changes
// config_fingerprint(), and validate() names fields by their table paths.
// (The fleet `set` round trip over the same table is in test_fleet.cpp.)
//
// Neither test trusts the tables: both enumerate each struct's leaf members
// by aggregate reflection (structured bindings), so deleting a table entry
// or adding a field without one fails here as well as in hostnet-audit's
// config-unvisited check.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/config_fields.hpp"

namespace hostnet::core {
namespace {

// -- aggregate reflection -----------------------------------------------------

struct AnyField {
  template <class T>
  operator T() const;  // declared only: member_count() uses it unevaluated
};

/// Number of direct members of aggregate `T`.
template <class T, class... A>
constexpr std::size_t member_count() {
  if constexpr (requires { T{A{}..., AnyField{}}; }) return member_count<T, A..., AnyField>();
  else return sizeof...(A);
}

template <class T, class F>
void for_each_member(T& t, F&& f) {
  constexpr std::size_t n = member_count<std::remove_const_t<T>>();
  // clang-format off
  if constexpr (n == 2) { auto& [a, b] = t; f(a); f(b); }
  else if constexpr (n == 3) { auto& [a, b, c] = t; f(a); f(b); f(c); }
  else if constexpr (n == 4) { auto& [a, b, c, d] = t; f(a); f(b); f(c); f(d); }
  else if constexpr (n == 5) { auto& [a, b, c, d, e] = t; f(a); f(b); f(c); f(d); f(e); }
  else if constexpr (n == 6) {
    auto& [a, b, c, d, e, g] = t; f(a); f(b); f(c); f(d); f(e); f(g);
  } else if constexpr (n == 7) {
    auto& [a, b, c, d, e, g, h] = t; f(a); f(b); f(c); f(d); f(e); f(g); f(h);
  } else if constexpr (n == 8) {
    auto& [a, b, c, d, e, g, h, i] = t; f(a); f(b); f(c); f(d); f(e); f(g); f(h); f(i);
  } else if constexpr (n == 9) {
    auto& [a, b, c, d, e, g, h, i, j] = t;
    f(a); f(b); f(c); f(d); f(e); f(g); f(h); f(i); f(j);
  } else if constexpr (n == 10) {
    auto& [a, b, c, d, e, g, h, i, j, k] = t;
    f(a); f(b); f(c); f(d); f(e); f(g); f(h); f(i); f(j); f(k);
  } else if constexpr (n == 16) {
    auto& [a, b, c, d, e, g, h, i, j, k, l, m, o, p, q, r] = t;
    f(a); f(b); f(c); f(d); f(e); f(g); f(h); f(i); f(j); f(k); f(l); f(m); f(o); f(p); f(q);
    f(r);
  } else {
    static_assert(n == 0, "add a structured-binding arm for this member count");
  }
  // clang-format on
}

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

/// Calls f(leaf) on every leaf member of `t`, recursing into nested
/// aggregates and engaged optionals -- found without the tables.
template <class T, class F>
void for_each_leaf(T& t, F&& f) {
  for_each_member(t, [&](auto& m) {
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (IsOptional<M>::value) {
      if (m) for_each_leaf(*m, f);
    } else if constexpr (std::is_class_v<M> && std::is_aggregate_v<M>) {
      for_each_leaf(m, f);
    } else {
      f(m);
    }
  });
}

// -- table helpers --------------------------------------------------------------

struct Leaf {
  std::string path;
  const void* addr;
  FieldUnit unit;
  bool signed_int;
};

template <class Cfg>
std::vector<Leaf> leaves(Cfg& c) {
  std::vector<Leaf> out;
  visit_fields(c, [&](std::string_view path, auto& f, FieldUnit unit = FieldUnit::kNone) {
    using F = std::remove_cvref_t<decltype(f)>;
    out.push_back({std::string(path), &f, unit, std::is_integral_v<F> && std::is_signed_v<F>});
  });
  return out;
}

template <class F>
void perturb(F& f) {
  if constexpr (std::is_same_v<F, std::string>) f += "x";
  else if constexpr (std::is_same_v<F, bool>) f = !f;
  else if constexpr (std::is_enum_v<F>)
    f = static_cast<F>(static_cast<std::underlying_type_t<F>>(f) + 1);
  else if constexpr (std::is_floating_point_v<F>) f = f * 1.5 + 1;
  else f += 1;
}

/// Perturbs the `i`-th leaf member of `c` alone (reflection order).
template <class Cfg>
void perturb_leaf(Cfg& c, std::size_t i) {
  std::size_t k = 0;
  for_each_leaf(c, [&](auto& f) {
    if (k++ == i) perturb(f);
  });
}

template <class Cfg>
std::size_t leaf_count(Cfg c) {
  std::size_t n = 0;
  for_each_leaf(c, [&](auto&) { ++n; });
  return n;
}

/// The table path of the `i`-th leaf member of `c`, or "unvisited".
template <class Cfg>
std::string leaf_path(Cfg c, std::size_t i) {
  std::size_t k = 0;
  const void* addr = nullptr;
  for_each_leaf(c, [&](auto& f) {
    if (k++ == i) addr = &f;
  });
  for (const Leaf& l : leaves(c))
    if (l.addr == addr) return l.path;
  return "unvisited leaf #" + std::to_string(i);
}

/// A P2M spec with both optional placements engaged, so its table visits
/// every leaf (the fingerprint never interprets the combination).
P2MSpec full_p2m() {
  P2MSpec p;
  p.storage = iio::StorageConfig{};
  p.tcp = TcpSpec{};
  return p;
}

std::string fp(const HostConfig& h, const std::optional<C2MSpec>& c2m,
               const std::optional<P2MSpec>& p2m) {
  return config_fingerprint(h, c2m, p2m, 1, us(10));
}

template <class Cfg>
void expect_table_matches_members(Cfg c, const char* what) {
  SCOPED_TRACE(what);
  std::set<const void*> members;
  for_each_leaf(c, [&](auto& f) { members.insert(&f); });
  std::set<const void*> visited;
  std::set<std::string> paths;
  for (const Leaf& l : leaves(c)) {
    EXPECT_TRUE(visited.insert(l.addr).second) << l.path << " visits a leaf twice";
    EXPECT_TRUE(paths.insert(l.path).second) << "duplicate path " << l.path;
    EXPECT_EQ(members.count(l.addr), 1u) << l.path << " is not a leaf member";
    // Tick is std::int64_t: every signed integer leaf is a Tick and says ns.
    EXPECT_EQ(l.signed_int, l.unit == FieldUnit::kNs) << l.path;
  }
  EXPECT_TRUE(visited == members) << members.size() - visited.size()
                                  << " leaf member(s) unvisited";
}

TEST(ConfigFields, TablesVisitEveryLeafMemberOnce) {
  expect_table_matches_members(cascade_lake(), "HostConfig");
  expect_table_matches_members(C2MSpec{}, "C2MSpec");
  expect_table_matches_members(full_p2m(), "P2MSpec");
}

TEST(ConfigFields, EveryLeafChangesTheFingerprint) {
  // Every leaf member, enumerated by reflection rather than by the tables:
  // a leaf missing from its table leaves the fingerprint unchanged here.
  const HostConfig host = cascade_lake();
  const C2MSpec c2m;
  const P2MSpec p2m = full_p2m();
  const std::string base = fp(host, c2m, p2m);
  for (std::size_t i = 0; i < leaf_count(host); ++i) {
    HostConfig h = host;
    perturb_leaf(h, i);
    EXPECT_TRUE(base != fp(h, c2m, p2m)) << "HostConfig " << leaf_path(host, i);
  }
  for (std::size_t i = 0; i < leaf_count(c2m); ++i) {
    C2MSpec c = c2m;
    perturb_leaf(c, i);
    EXPECT_TRUE(base != fp(host, c, p2m)) << "C2MSpec " << leaf_path(c2m, i);
  }
  for (std::size_t i = 0; i < leaf_count(p2m); ++i) {
    P2MSpec p = p2m;
    perturb_leaf(p, i);
    EXPECT_TRUE(base != fp(host, c2m, p)) << "P2MSpec " << leaf_path(p2m, i);
  }
  // Presence of each optional placement is part of the key too.
  P2MSpec no_tcp = p2m;
  no_tcp.tcp.reset();
  P2MSpec no_storage = p2m;
  no_storage.storage.reset();
  EXPECT_NE(base, fp(host, c2m, no_tcp));
  EXPECT_NE(base, fp(host, c2m, no_storage));
  EXPECT_NE(fp(host, c2m, no_tcp), fp(host, c2m, no_storage));
}

TEST(ConfigFields, ValidateNamesFieldsByTablePath) {
  HostConfig probe = cascade_lake();
  std::set<std::string> paths;
  for (const Leaf& l : leaves(probe)) paths.insert(l.path);
  const std::vector<void (*)(HostConfig&)> breakers = {
      [](HostConfig& c) { c.dram.channels = 3; },
      [](HostConfig& c) { c.dram.banks_per_channel = 0; },
      [](HostConfig& c) { c.dram.row_bytes = 1000; },
      [](HostConfig& c) { c.dram.channel_interleave_bytes = 32; },
      [](HostConfig& c) { c.dram.bank_interleave_bytes = 32; },
      [](HostConfig& c) { c.dram.bank_interleave_bytes = 2 * c.dram.row_bytes; },
      [](HostConfig& c) { c.mc.wpq_high_wm = c.mc.wpq_capacity; },
      [](HostConfig& c) { c.mc.wpq_low_wm = c.mc.wpq_high_wm; },
      [](HostConfig& c) { c.mc.rpq_capacity = 0; },
      [](HostConfig& c) { c.core.lfb_entries = 0; },
      [](HostConfig& c) { c.iio.read_credits = 0; },
      [](HostConfig& c) { c.cha.write_tracker = 0; },
      [](HostConfig& c) { c.cha.write_tracker_peripheral_reserve = c.cha.write_tracker + 1; },
      [](HostConfig& c) { c.pcie_read_gb_per_s = 0; },
      [](HostConfig& c) { c.mc.timing.t_trans = 0; },
  };
  for (std::size_t i = 0; i < breakers.size(); ++i) {
    HostConfig c = cascade_lake();
    breakers[i](c);
    const std::string msg = c.validate();
    SCOPED_TRACE("breaker " + std::to_string(i) + ": " + msg);
    ASSERT_FALSE(msg.empty());
    // The message opens with a field, and every word of it that looks like
    // a field (has a '.' or '_') is a table path.
    EXPECT_EQ(paths.count(msg.substr(0, msg.find(' '))), 1u);
    std::size_t start = 0;
    while (start < msg.size()) {
      const std::size_t end = std::min(msg.find(' ', start), msg.size());
      const std::string word = msg.substr(start, end - start);
      if (word.find_first_of("._") != std::string::npos) {
        EXPECT_EQ(paths.count(word), 1u) << word;
      }
      start = end + 1;
    }
  }
}

}  // namespace
}  // namespace hostnet::core
