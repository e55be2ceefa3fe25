// Fixture: hot-path subsystems may use vectors (growth amortizes to zero at
// steady state), placement new (allocates nothing), and explicitly justified
// setup-path containers behind an allow() directive.
#include <cstddef>
#include <map>
#include <new>
#include <vector>

struct Slot {
  int payload;
};

std::vector<Slot> arena;

Slot* construct_at(void* storage) { return new (storage) Slot{0}; }

// Beyond-horizon ticks are rare and never on the per-event path, so an
// ordered map is acceptable here.
// hostnet-lint: allow(hot-alloc)
std::map<long long, Slot> overflow;
