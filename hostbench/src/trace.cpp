#include "trace.hpp"

#include <fstream>

namespace hostbench {

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), now_ns(), -1});
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost first; tolerate an out-of-order close.
  for (std::size_t i = open_.size(); i-- > 0;)
    if (open_[i] == id) {
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": 1, \"ts\": " << static_cast<double>(s.start_ns) / 1000.0
        << ", \"dur\": " << static_cast<double>(end - s.start_ns) / 1000.0
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace hostbench
