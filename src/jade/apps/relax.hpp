// Iterative constraint-relaxation solver — a weighted-Jacobi stencil sweep
// over a 2-D grid, the XPBD/cloth-solver idiom (HinaCloth-style: a solver
// core of colored/damped constraint projections over SoA state, split from
// the task-parallel backend that schedules them).
//
// The grid's rows are partitioned into horizontal strips; each strip is one
// shared object (row-major, so the stencil's column loop runs over
// contiguous lanes and vectorizes — src/jade/apps/kernels_soa.cpp).  The
// sweep is double-buffered: iteration k reads buffer A and writes buffer B,
// iteration k+1 reads B and writes A, so results are independent of the
// strip partitioning and bit-identical across engines.
//
// What this workload adds that water/Barnes-Hut/cholesky don't: each sweep
// task needs only the *boundary row* of its neighbor strips.  In pipelined
// mode it declares those neighbors df_rd (deferred), converts to rd just
// long enough to copy the halo row out, and retires the right with no_rd —
// per-iteration `with`-continuation traffic that exercises partial
// retirement (the next iteration's writer of a neighbor strip unblocks as
// soon as the halo copy retires, not when the whole sweep task finishes)
// and the df_rd dispatch prefetch of the communication protocol
// (docs/PERFORMANCE.md).  Non-pipelined mode declares plain rd and needs no
// continuations — the Section 4.1-style baseline.
//
// Task bodies are registered with the cluster BodyRegistry and created via
// cluster::spawn, so the same program text runs on Serial/Thread/Sim
// engines (closure fallback) and on the multi-process ClusterEngine.
#pragma once

#include <cstdint>
#include <vector>

#include "jade/core/runtime.hpp"

namespace jade::apps {

struct RelaxConfig {
  int rows = 96;   ///< grid rows (outermost ring is fixed Dirichlet boundary)
  int cols = 96;   ///< grid columns
  int strips = 4;  ///< parallel grain: one task per strip per sweep
  int iterations = 24;
  double omega = 0.9;  ///< weighted-Jacobi damping in (0, 1]
  std::uint64_t seed = 77;
  double flops_per_cell = 8.0;  ///< charge() units per relaxed cell
  /// df_rd neighbor declarations with convert/retire continuations (the
  /// Section 4.2 idiom); false = plain rd declarations, no continuations.
  bool pipelined = true;
};

/// Host-side grid, row-major rows*cols.
struct RelaxState {
  int rows = 0;
  int cols = 0;
  std::vector<double> grid;

  double& at(int r, int c) {
    return grid[static_cast<std::size_t>(r) * cols + c];
  }
  double at(int r, int c) const {
    return grid[static_cast<std::size_t>(r) * cols + c];
  }
};

/// Seeded random boundary + interior values (the solver smooths the
/// interior toward the discrete harmonic interpolant of the boundary).
RelaxState make_relax(const RelaxConfig& config);

/// Serial reference: the exact sweeps the Jade version must reproduce.
void relax_run_serial(const RelaxConfig& config, RelaxState& state);

/// Max interior defect |x - mean(4 neighbors)|: the solver drives this
/// toward 0 (the fixed point of the weighted-Jacobi iteration).
double relax_residual(const RelaxState& state);

double relax_checksum(const RelaxState& state);

/// Shared objects: two row-major buffers per strip (double-buffered sweeps).
struct JadeRelax {
  RelaxConfig config;
  std::vector<SharedRef<double>> buf_a;  ///< sweep 0 reads a, writes b, ...
  std::vector<SharedRef<double>> buf_b;
  std::vector<int> strip_start;  ///< row range per strip
};

JadeRelax upload_relax(Runtime& rt, const RelaxConfig& config,
                       const RelaxState& state);
void relax_run_jade(TaskContext& ctx, const JadeRelax& w);
RelaxState download_relax(Runtime& rt, const JadeRelax& w);

}  // namespace jade::apps
