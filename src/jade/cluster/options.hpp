// ClusterEngine configuration.
//
// Lives in its own light header so RuntimeConfig can embed the options
// without pulling the whole multi-process engine (sockets, fork) into every
// translation unit that configures a runtime.
#pragma once

#include "jade/support/time.hpp"

namespace jade::cluster {

struct Options {
  /// Worker processes executing task bodies (the cluster's "machines").
  int workers = 4;
  /// Pre-forked idle processes kept in reserve; when a worker dies one is
  /// activated under the dead worker's machine id.  Forking after the
  /// coordinator has started threads is not safe, so spares must exist
  /// up front.  With none left, the dead machine id stays dark and its
  /// tasks re-run elsewhere.
  int spares = 1;
  /// Wall-clock seconds between worker heartbeats to the coordinator.
  SimTime heartbeat_interval = 0.025;
  /// Heartbeat intervals a worker may miss before the detector suspects it.
  int miss_threshold = 4;
};

}  // namespace jade::cluster
