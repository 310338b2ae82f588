// Forwarding header: the engine lives in src/sim/simulator.h.  perfbench/
// still includes this name.

#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include "src/sim/simulator.h"

#endif  // SRC_SIM_PARALLEL_H_
