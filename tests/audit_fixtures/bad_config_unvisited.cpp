// Bad fixture: config-table completeness.
//   * HostConfig reaches ChannelConfig::wpq_low_wm through `mc`, but its
//     visit_fields() table has no entry for it -> one config-unvisited
//     finding
//   * P2MSpec reaches StorageConfig through std::optional and visits every
//     leaf -> no finding
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

namespace fixture {

struct ChannelConfig {
  std::uint32_t wpq_high_wm = 22;
  std::uint32_t wpq_low_wm = 8;
};

struct HostConfig {
  std::string name = "host";
  ChannelConfig mc{};
};

struct StorageConfig {
  std::uint32_t queue_depth = 4;
};

struct P2MSpec {
  std::string name = "p2m";
  std::optional<StorageConfig> storage{};
};

template <class T, class Cfg>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Cfg>;

template <FieldsOf<HostConfig> H, class V>
void visit_fields(H& c, V&& v) {
  v("name", c.name);
  v("mc.wpq_high_wm", c.mc.wpq_high_wm);
}

template <FieldsOf<P2MSpec> S, class V>
void visit_fields(S& p, V&& v) {
  v("name", p.name);
  if (p.storage) {
    v("storage.queue_depth", p.storage->queue_depth);
  }
}

}  // namespace fixture
