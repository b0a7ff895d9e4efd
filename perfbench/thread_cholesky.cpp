// thread_cholesky — the paper's sparse Cholesky (Figure 6: one task per
// column update) on the ThreadEngine with two workers.
//
// Each op uploads a matrix's values, factors it, and reads the factor back;
// the factor must equal the serial factorization bit for bit.  Ops cycle
// over a pool of seeded matrices, so a run averages over several sparsity
// patterns and no single pattern sets the figures.
#include "harness.hpp"

#include "jade/apps/cholesky.hpp"
#include "jade/support/rng.hpp"

namespace perfbench {
namespace {

constexpr int kWorkers = 2;
constexpr int kPool = 32;
constexpr int kColumns = 256;
constexpr double kDensity = 5.0 / kColumns;

class ThreadCholesky final : public SequentialWorkload {
 public:
  ThreadCholesky(std::uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  void prepare() override {
    jade::Rng rng(seed_);
    for (int k = 0; k < kPool; ++k) {
      inputs_.push_back(jade::apps::make_spd(kColumns, kDensity, rng.next_u64()));
      expect_.push_back(inputs_.back());
      jade::apps::factor_serial(expect_.back());
    }
  }

 private:
  jade::RuntimeConfig runtime_config() const override {
    jade::RuntimeConfig cfg;
    cfg.engine = jade::EngineKind::kThread;
    cfg.threads = kWorkers;
    cfg.obs = obs_config(trace_);
    return cfg;
  }

  void upload() override {
    uploaded_.clear();
    for (const auto& m : inputs_)
      uploaded_.push_back(jade::apps::upload_matrix(*rt_, m));
  }

  Op run_op(std::size_t i) override {
    const std::size_t k = i % kPool;
    const jade::apps::SparseMatrix& a = inputs_[k];
    const jade::apps::JadeSparse& jm = uploaded_[k];
    OpTimer t;
    t.start = Clock::now();
    for (int c = 0; c < a.n; ++c)
      rt_->put<double>(jm.cols[static_cast<std::size_t>(c)],
                       a.cols[static_cast<std::size_t>(c)]);
    t.put_done = Clock::now();
    rt_->run([&](jade::TaskContext& ctx) {
      t.root_begin = Clock::now();
      jade::apps::factor_jade(ctx, jm);
      t.root_end = Clock::now();
    });
    t.run_done = Clock::now();
    const jade::apps::SparseMatrix got = jade::apps::download_matrix(*rt_, jm);
    t.get_done = Clock::now();

    return finish_op(t, got.cols == expect_[k].cols);
  }

  const std::uint64_t seed_;
  const bool trace_;
  std::vector<jade::apps::SparseMatrix> inputs_;
  std::vector<jade::apps::SparseMatrix> expect_;
  std::vector<jade::apps::JadeSparse> uploaded_;
};

}  // namespace

std::unique_ptr<Workload> make_thread_cholesky(std::uint64_t seed, bool trace) {
  return std::make_unique<ThreadCholesky>(seed, trace);
}

}  // namespace perfbench
