// Host speed probe. On a shared host the speed of a vCPU drifts with the
// load of other tenants, by 10-50% over tens of seconds, and a timing taken
// at one moment carries that drift. The probe is a fixed piece of
// arithmetic, ~8 us long, that touches no memory; the benchmark times it
// between the steps it measures and scales each timing to the nominal host
// speed:
//
//   scaled time = measured time * kNominalProbeNs / probe time nearby
//
// It is compiled in its own library, with fixed flags and none of the
// program's, so no change to the program or its build alters the probe.
#pragma once

#include <cstdint>

namespace perfbench {

/// Probe time, in ns, of the host all scaled timings are reported at.
inline constexpr double kNominalProbeNs = 8000.0;

/// Runs the probe once and returns its wall time in ns.
int64_t TimeHostProbe();

}  // namespace perfbench
