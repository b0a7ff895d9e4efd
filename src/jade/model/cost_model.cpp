#include "jade/model/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "jade/support/error.hpp"

namespace jade::model {

namespace {

/// Aggregate and peak machine speeds of the target platform.
struct Ops {
  double aggregate = 0;
  double peak = 0;
};

Ops ops_of(const ClusterConfig& cluster) {
  Ops o;
  for (const MachineDesc& m : cluster.machines) {
    o.aggregate += m.ops_per_second;
    o.peak = std::max(o.peak, m.ops_per_second);
  }
  if (o.aggregate <= 0) o.aggregate = 1;
  if (o.peak <= 0) o.peak = 1;
  return o;
}

}  // namespace

double CostModel::comm_seconds(const ClusterConfig& cluster, double bytes,
                               double messages) {
  if (cluster.shared_memory() || (bytes <= 0 && messages <= 0)) return 0;
  const double m = std::max(1.0, static_cast<double>(cluster.machine_count()));
  switch (cluster.net) {
    case NetKind::kSharedBus:
      // One medium: every byte and every message interrupt serialize.
      return bytes / cluster.bus.bytes_per_second +
             messages * cluster.bus.latency;
    case NetKind::kHypercube: {
      // log2(m)·m/2 links; disjoint pairs keep ~m/2 transfers in flight.
      const double concurrency = std::max(1.0, m / 2.0);
      const double hops = std::max(1.0, std::log2(m) / 2.0);  // mean distance
      return bytes / (cluster.cube.bytes_per_second * concurrency) +
             messages * (cluster.cube.startup + hops * cluster.cube.per_hop);
    }
    case NetKind::kCrossbar:
      // Non-blocking switch: per-link bandwidth times one in-flight transfer
      // per machine pair, bounded by the receivers.
      return bytes / (cluster.xbar.bytes_per_second * m) +
             messages * cluster.xbar.per_hop;
    case NetKind::kMesh: {
      // 2-D mesh, XY routing: bisection limits concurrency to ~sqrt(m).
      const double concurrency = std::max(1.0, std::sqrt(m));
      return bytes / (cluster.mesh.bytes_per_second * concurrency) +
             messages *
                 (cluster.mesh.startup + cluster.mesh.per_hop * std::sqrt(m));
    }
    case NetKind::kIdeal:
      return bytes / (cluster.ideal.bytes_per_second * m) +
             messages * cluster.ideal.latency;
    case NetKind::kSharedMemory:
      return 0;
  }
  return 0;
}

std::array<double, CostModel::kTerms> CostModel::basis(
    const WorkloadFeatures& f, const ClusterConfig& cluster,
    const SchedPolicy& policy) {
  const Ops ops = ops_of(cluster);
  const double m = std::max(1.0, static_cast<double>(cluster.machine_count()));

  // Serial floor: the dependence chain, relaxed by speculative run-ahead
  // when the policy enables it and the profile saw speculation pay off.
  double crit = f.critical_path_work / ops.peak;
  if (policy.spec.enabled && f.spec_speedup > 1.0) crit /= f.spec_speedup;

  // Throughput floor: all work spread over all machines.
  const double work_par = f.total_work / ops.aggregate;

  // Task management: dispatch runs on every machine's runtime lane;
  // creation runs on the creators' lanes, which parallelize only as far as
  // the creating tasks themselves do (a root-driven flood creates serially).
  const double dispatch = f.tasks * cluster.task_dispatch_overhead / m;
  const double creator_par =
      f.root_fanout > 0
          ? std::clamp(f.tasks / f.root_fanout, 1.0, m)
          : 1.0;
  const double create = f.tasks * cluster.task_create_overhead / creator_par;

  const double compute =
      std::max(crit, work_par) + dispatch + create;

  // Data motion demand: what the profile measured with the same placement
  // heuristics, priced on the target interconnect.  Locality off moves the
  // no-locality demand instead.
  const bool locality = policy.locality && !cluster.shared_memory();
  const double bytes = locality ? f.payload_bytes : f.payload_bytes_nolocal;
  const double msgs = locality ? f.messages : f.messages_nolocal;
  const double comm = comm_seconds(cluster, bytes, msgs);

  const double hi = std::max(compute, comm);
  const double lo = std::min(compute, comm);
  const bool hiding = policy.contexts_per_machine > 1;
  return {hi, hiding ? 0.0 : lo, hiding ? lo : 0.0, 1.0};
}

void CostModel::fit(std::span<const Observation> observations) {
  constexpr std::size_t n = kTerms;
  // Weighted normal equations: minimizing sum((pred - actual) / actual)^2
  // makes small and large runs count equally — the validation gate is
  // *relative* error.
  std::array<std::array<double, n>, n> ata{};
  std::array<double, n> atb{};
  std::size_t used = 0;
  for (const Observation& ob : observations) {
    if (ob.actual_seconds <= 0) continue;
    const std::array<double, n> x = basis(ob.features, ob.cluster, ob.policy);
    const double w = 1.0 / (ob.actual_seconds * ob.actual_seconds);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) ata[i][j] += w * x[i] * x[j];
      atb[i] += w * x[i] * ob.actual_seconds;
    }
    ++used;
  }
  if (used < n)
    throw ConfigError("CostModel::fit needs at least " + std::to_string(n) +
                      " observations with positive completion time, got " +
                      std::to_string(used));

  // Ridge floor: basis columns can vanish (e.g. no contexts=1 run in the
  // training set); a tiny diagonal keeps elimination stable and pins the
  // unidentified coefficient near zero — deterministically.
  for (std::size_t i = 0; i < n; ++i) ata[i][i] += 1e-9;

  // Gaussian elimination with partial pivoting — fixed operation order, so
  // identical inputs give bit-identical coefficients.
  std::array<std::size_t, n> row{};
  for (std::size_t i = 0; i < n; ++i) row[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::fabs(ata[row[r]][col]) > std::fabs(ata[row[pivot]][col]))
        pivot = r;
    std::swap(row[col], row[pivot]);
    const double diag = ata[row[col]][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = ata[row[r]][col] / diag;
      for (std::size_t c = col; c < n; ++c)
        ata[row[r]][c] -= factor * ata[row[col]][c];
      atb[row[r]] -= factor * atb[row[col]];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double acc = atb[row[i]];
    for (std::size_t c = i + 1; c < n; ++c) acc -= ata[row[i]][c] * coef_[c];
    coef_[i] = acc / ata[row[i]][i];
  }
  fitted_ = true;
}

double CostModel::predict(const WorkloadFeatures& f,
                          const ClusterConfig& cluster,
                          const SchedPolicy& policy) const {
  if (!fitted_)
    throw ConfigError("CostModel::predict called before fit()");
  const std::array<double, kTerms> x = basis(f, cluster, policy);
  double t = 0;
  for (std::size_t i = 0; i < kTerms; ++i) t += coef_[i] * x[i];
  return std::max(t, 0.0);
}

}  // namespace jade::model
