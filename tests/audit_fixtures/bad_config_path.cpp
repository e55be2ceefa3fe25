// Bad fixture: visit_fields() paths must spell the member chain they visit
// (the path is the fleet `set` key, so a typo would rename the key).
//   * "mc.wpq_high" names no member -> one config-bad-path finding
//   * "mc.wpq_low_wm" visits c.mc.wpq_high_wm -> one config-bad-path finding
//   * so nothing visits "mc.wpq_high_wm" -> one config-unvisited finding
#include <concepts>
#include <cstdint>
#include <type_traits>

namespace fixture {

struct ChannelConfig {
  std::uint32_t wpq_high_wm = 22;
  std::uint32_t wpq_low_wm = 8;
};

struct HostConfig {
  ChannelConfig mc{};
};

template <class T, class Cfg>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Cfg>;

template <FieldsOf<HostConfig> H, class V>
void visit_fields(H& c, V&& v) {
  v("mc.wpq_high", c.mc.wpq_high_wm);
  v("mc.wpq_low_wm", c.mc.wpq_high_wm);
}

}  // namespace fixture
