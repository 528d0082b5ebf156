// User service classes for tiered QoS.
//
// The paper promises every stream "a minimum decent frame rate"; a loaded
// or faulty network cannot keep that promise to everyone at once.  Classes
// make the triage explicit (the agent-based bandwidth-management literature
// on distributed VoD uses the same three tiers): premium sessions get the
// largest weighted share of contended links and may preempt lower classes
// at admission; background sessions absorb the shed when capacity runs out.
//
// The enumerator order IS the priority order: a smaller underlying value
// outranks a larger one.  Shedding walks the enum from the back (background
// first), protection walks it from the front (premium first).  Everything
// class-aware defaults to a single-class (kStandard, weight 1)
// configuration that is byte-identical to the classless paper behaviour.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace vod {

/// Service tier of one user request / session.  Order = priority.
enum class UserClass : std::uint8_t {
  kPremium = 0,
  kStandard = 1,
  kBackground = 2,
};

inline constexpr std::size_t kUserClassCount = 3;

/// Array index of a class (kPremium -> 0, ..., kBackground -> 2).
[[nodiscard]] constexpr std::size_t class_index(UserClass cls) {
  return static_cast<std::size_t>(cls);
}

/// True when `a` strictly outranks `b` (may preempt it, is shed after it).
[[nodiscard]] constexpr bool outranks(UserClass a, UserClass b) {
  return static_cast<std::uint8_t>(a) < static_cast<std::uint8_t>(b);
}

/// What a class buys when tiered QoS is on (ServiceOptions::qos).
struct ClassPolicy {
  /// Weight of the class's transfers in the fluid network's weighted
  /// max-min fill.  Borrowing is emergent: a premium flow frozen at its
  /// cap stops consuming fill increments, so its unused share spills to
  /// whoever is still filling, lower classes included.
  std::uint32_t flow_weight;
  /// Multiplier on the request's admission headroom.  Lower classes demand
  /// more slack: their streams are shed first, so admitting them right at
  /// the edge only turns admission into a deferred stall.
  double admission_headroom;
  /// Multiplier on the session stall timeout: <1 gives up sooner (sheds
  /// first under a storm), >1 is more patient.
  double stall_timeout_scale;
};

/// The per-class policy, indexed by class_index().
inline constexpr std::array<ClassPolicy, kUserClassCount> kClassPolicies{{
    {/*flow_weight=*/4, /*admission_headroom=*/1.0,
     /*stall_timeout_scale=*/1.5},
    {/*flow_weight=*/2, /*admission_headroom=*/1.1,
     /*stall_timeout_scale=*/1.0},
    {/*flow_weight=*/1, /*admission_headroom=*/1.25,
     /*stall_timeout_scale=*/0.5},
}};

[[nodiscard]] constexpr const ClassPolicy& class_policy(UserClass cls) {
  return kClassPolicies[class_index(cls)];
}

/// The service and its sessions use the table unchecked, so a bad edit
/// must not compile: every entry is usable as is (finite positive
/// headroom, weight >= 1, positive patience), and a lower class demands
/// more slack and gets less weight and patience than the class above it.
[[nodiscard]] constexpr bool class_policies_valid() {
  for (std::size_t c = 0; c < kUserClassCount; ++c) {
    const ClassPolicy& p = kClassPolicies[c];
    if (!(p.admission_headroom > 0.0 &&
          p.admission_headroom <= std::numeric_limits<double>::max()) ||
        p.flow_weight < 1 || !(p.stall_timeout_scale > 0.0)) {
      return false;
    }
    if (c == 0) continue;
    const ClassPolicy& above = kClassPolicies[c - 1];
    if (!(p.admission_headroom > above.admission_headroom) ||
        !(p.flow_weight < above.flow_weight) ||
        !(p.stall_timeout_scale < above.stall_timeout_scale)) {
      return false;
    }
  }
  return true;
}
static_assert(class_policies_valid());

[[nodiscard]] constexpr const char* to_string(UserClass cls) {
  switch (cls) {
    case UserClass::kPremium:
      return "premium";
    case UserClass::kStandard:
      return "standard";
    case UserClass::kBackground:
      return "background";
  }
  return "unknown";
}

}  // namespace vod
