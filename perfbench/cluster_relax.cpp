// cluster_relax — the weighted-Jacobi relaxation solver on the
// ClusterEngine: two forked worker processes over Unix sockets.
//
// Each op writes a seeded grid into the strip objects, runs the pipelined
// sweeps (df_rd halo rows retired early with with-cont), and reads the grid
// back; it must equal the serial sweeps bit for bit.  A host write makes
// the workers' cached strips stale, so every op ships the grid out and the
// result back across the process boundary.  Ops cycle over a pool of
// seeded grids.
#include "harness.hpp"

#include "jade/apps/relax.hpp"
#include "jade/support/rng.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr int kPool = 4;

jade::apps::RelaxConfig relax_config(std::uint64_t seed) {
  jade::apps::RelaxConfig c;
  c.rows = 128;
  c.cols = 128;
  c.strips = 4;
  c.iterations = 32;
  c.pipelined = true;
  c.seed = seed;
  return c;
}

class ClusterRelax final : public SequentialWorkload {
 public:
  ClusterRelax(std::uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  void prepare() override {
    jade::Rng rng(seed_);
    for (int k = 0; k < kPool; ++k) {
      const jade::apps::RelaxConfig c = relax_config(rng.next_u64());
      inputs_.push_back(jade::apps::make_relax(c));
      expect_.push_back(inputs_.back());
      jade::apps::relax_run_serial(c, expect_.back());
    }
  }

 private:
  jade::RuntimeConfig runtime_config() const override {
    jade::RuntimeConfig cfg;
    cfg.engine = jade::EngineKind::kCluster;
    cfg.cluster_proc.workers = kWorkers;
    cfg.cluster_proc.spares = 0;
    cfg.obs = obs_config(trace_);
    return cfg;
  }

  void upload() override {
    relax_ = jade::apps::upload_relax(*rt_, relax_config(0), inputs_[0]);
    frames_mark_ = 0;
  }

  Op run_op(std::size_t i) override {
    const std::size_t k = i % kPool;
    const std::vector<double>& grid = inputs_[k].grid;
    const auto cols = static_cast<std::size_t>(relax_.config.cols);
    OpTimer t;
    t.start = Clock::now();
    for (std::size_t s = 0; s < relax_.buf_a.size(); ++s) {
      const auto lo = static_cast<std::size_t>(relax_.strip_start[s]);
      const auto hi = static_cast<std::size_t>(relax_.strip_start[s + 1]);
      rt_->put<double>(relax_.buf_a[s],
                       std::span<const double>(grid).subspan(
                           lo * cols, (hi - lo) * cols));
    }
    t.put_done = Clock::now();
    rt_->run([&](jade::TaskContext& ctx) {
      t.root_begin = Clock::now();
      jade::apps::relax_run_jade(ctx, relax_);
      t.root_end = Clock::now();
    });
    t.run_done = Clock::now();
    const jade::apps::RelaxState got = jade::apps::download_relax(*rt_, relax_);
    t.get_done = Clock::now();

    Op op = finish_op(t, got.grid == expect_[k].grid);
    // ClusterEngine reports the socket frames sent since its workers
    // started, not per run(); take this op's difference, less the worker
    // heartbeats drained in this run, which arrive on a wall-clock timer.
    const double frames = op.layers.messages;
    op.layers.messages = frames - frames_mark_ -
                         static_cast<double>(rt_->stats().heartbeats_sent);
    frames_mark_ = frames;
    return op;
  }

  const std::uint64_t seed_;
  const bool trace_;
  std::vector<jade::apps::RelaxState> inputs_;
  std::vector<jade::apps::RelaxState> expect_;
  jade::apps::JadeRelax relax_;
  double frames_mark_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_relax(std::uint64_t seed, bool trace) {
  return std::make_unique<ClusterRelax>(seed, trace);
}

}  // namespace perfbench
