#include "obs/profile.h"

#include <sstream>

namespace vod::obs {

Profiler& Profiler::instance() {
  // vodlint:allow(shared-mutable-global: observe-only wall-clock profiler
  // (DESIGN.md §11); disabled by default — timings cannot feed back into
  // simulation state)
  static Profiler profiler;
  return profiler;
}

void Profiler::record(const char* site, std::uint64_t elapsed_ns) {
  SiteStats& stats = sites_[site];
  ++stats.calls;
  stats.total_ns += elapsed_ns;
}

std::string Profiler::report_csv() const {
  std::ostringstream os;
  os << "site,calls,total_ns,mean_ns\n";
  for (const auto& [site, stats] : sites_) {
    const std::uint64_t mean =
        stats.calls == 0 ? 0 : stats.total_ns / stats.calls;
    os << site << ',' << stats.calls << ',' << stats.total_ns << ',' << mean
       << '\n';
  }
  return os.str();
}

}  // namespace vod::obs
