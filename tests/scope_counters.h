// scope_counters.h — reading one counter out of a metrics scope in tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "common/metrics.h"

namespace ntcs {

/// Counter `name` in a snapshot of a scope (a node's, a gateway's or a
/// fabric's). A scope's counters exist from its owner's construction, so
/// a name its snapshot lacks is a typo in the test: that fails the test
/// instead of reading as 0.
inline std::uint64_t counter_value(const metrics::Snapshot& snap,
                                   std::string_view name) {
  const metrics::MetricValue* v = snap.find(name);
  EXPECT_NE(v, nullptr) << "no counter " << name << " in this scope";
  return v == nullptr ? 0 : v->count;
}

/// Counter `name` of `scope`, now.
inline std::uint64_t counter_value(const metrics::MetricsRegistry& scope,
                                   std::string_view name) {
  return counter_value(scope.snapshot(), name);
}

/// Process-wide total of counter `name`: the root's own value (which holds
/// what torn-down scopes counted) plus every live scope's.
inline std::uint64_t process_counter_value(std::string_view name) {
  return metrics::MetricsRegistry::instance().snapshot().value(name);
}

}  // namespace ntcs
