#ifndef DFI_CORE_DFI_H_
#define DFI_CORE_DFI_H_

/// Umbrella header for the DFI library: include this to use flows.
///
/// DFI (the Data Flow Interface) abstracts high-speed-network communication
/// of data-intensive systems as *flows* between thread-level sources and
/// targets — see README.md for a quickstart and DESIGN.md for the
/// architecture.

#include "common/exec/engine.h"   // IWYU pragma: export
#include "core/combiner_flow.h"   // IWYU pragma: export
#include "core/dfi_runtime.h"     // IWYU pragma: export
#include "core/flow_options.h"    // IWYU pragma: export
#include "core/graph/executor.h"  // IWYU pragma: export
#include "core/graph/graph.h"     // IWYU pragma: export
#include "core/nodes.h"           // IWYU pragma: export
#include "core/replicate_flow.h"  // IWYU pragma: export
#include "core/routing.h"         // IWYU pragma: export
#include "core/schema.h"          // IWYU pragma: export
#include "core/shuffle_flow.h"    // IWYU pragma: export
#include "net/fabric.h"           // IWYU pragma: export
#include "net/sim_config.h"       // IWYU pragma: export

#endif  // DFI_CORE_DFI_H_
