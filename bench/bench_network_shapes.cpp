// Supplementary experiment: interconnect topology, isolated.
//
// The same nodes (iPSC/860-class) under four wire models — shared Ethernet
// bus, 2-D mesh, hypercube, ideal — running LWS.  The paper's Figure 9/10
// platforms differ in node speed AND network AND runtime overheads; this
// sweep changes only the network, showing how much of the Mica/iPSC gap is
// the wires alone.
#include <iostream>

#include "jade/apps/water.hpp"
#include "jade/mach/presets.hpp"
#include "jade/support/stats.hpp"

#include "bench_format.hpp"

namespace {

jade::ClusterConfig with_net(jade::ClusterConfig base, jade::NetKind net) {
  base.net = net;
  // Equalize link parameters so ONLY the topology differs: same startup,
  // per-hop latency and link bandwidth for mesh and hypercube.
  base.mesh = base.cube;
  return base;
}

double run_lws(const jade::ClusterConfig& cluster,
               const jade::apps::WaterConfig& wc,
               const jade::apps::WaterState& initial) {
  jade::RuntimeConfig cfg;
  cfg.engine = jade::EngineKind::kSim;
  cfg.cluster = cluster;
  jade::Runtime rt(std::move(cfg));
  auto w = jade::apps::upload_water(rt, wc, initial);
  rt.run([&](jade::TaskContext& ctx) { jade::apps::water_run_jade(ctx, w); });
  return rt.sim_duration();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jade;
  apps::WaterConfig wc;
  wc.molecules = 1000;
  wc.groups = 40;
  wc.timesteps = 2;
  const auto initial = apps::make_water(wc);

  struct Shape {
    const char* name;
    NetKind net;
  };
  const Shape shapes[] = {
      {"shared-bus", NetKind::kSharedBus},
      {"mesh", NetKind::kMesh},
      {"hypercube", NetKind::kHypercube},
      {"ideal", NetKind::kIdeal},
  };

  std::cout << "=== topology isolation: LWS (" << wc.molecules
            << " molecules) on identical nodes, different wires ===\n";
  TextTable table({"machines", "shared-bus", "mesh", "hypercube", "ideal"});
  bench::JsonReport report("network_shapes");
  for (int p : {1, 4, 8, 16, 32}) {
    std::vector<double> row{static_cast<double>(p)};
    for (const Shape& s : shapes) {
      const double t =
          run_lws(with_net(presets::ipsc860(p), s.net), wc, initial);
      row.push_back(t);
      report.add_row()
          .count("machines", p)
          .str("net", s.name)
          .num("virtual_seconds", t, 6);
    }
    table.add_row(row, 3);
  }
  table.print(std::cout);
  std::cout << "(expected shape: bus saturates first; mesh trails the "
               "hypercube slightly at scale — its diameter grows as sqrt(n) "
               "vs log n; ideal bounds them all)\n";
  report.write(
      bench::json_out_path(argc, argv, "BENCH_network_shapes.json"));
  return 0;
}
