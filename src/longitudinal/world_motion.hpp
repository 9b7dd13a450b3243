// WorldMotion — the seam between the longitudinal monitor and whatever puts
// the observed world in motion.
//
// The one engine is the KASP policy clock (src/kasp/), which scripts
// bootstrap, key rollovers, breakage and unsigning. The monitor programs
// against this interface rather than the clock (src/longitudinal/ does not
// depend on src/kasp/), so the crash-recovery determinism contract
// (DESIGN.md §15) is stated once: a motion is a pure function of
// (seed, population) that can be rebuilt from scratch and replayed
// identically after a restart.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/transport.hpp"

namespace dnsboot::longitudinal {

class WorldMotion {
 public:
  virtual ~WorldMotion() = default;

  // Short token mixed into the monitor's world tag ("kasp"): a state
  // directory journaled under one motion must never replay under another.
  virtual std::string_view motion_name() const = 0;

  // Total number of scripted zone mutations in the plan.
  virtual std::size_t planned_steps() const = 0;

  // Distinct simulated times at which at least one mutation fires, sorted
  // ascending. arm_world_motion() schedules one callback per entry.
  virtual std::vector<net::SimTime> step_times() const = 0;

  // Apply every not-yet-applied mutation with fire time <= now, in
  // (fire time, plan order). Cumulative and idempotent between step times:
  // firing late applies everything due, firing twice applies nothing new.
  virtual void advance(net::SimTime now) = 0;

  virtual std::uint64_t applied() const = 0;
  virtual std::uint64_t failed() const = 0;
};

// Schedule motion.advance() on the network at every step time. Step times
// already in the past collapse onto the next tick, which is safe because
// advance() is cumulative.
void arm_world_motion(net::Transport& network, WorldMotion& motion);

}  // namespace dnsboot::longitudinal
