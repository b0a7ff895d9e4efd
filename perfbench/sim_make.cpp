// sim_make — the paper's parallel make (Section 7.1) on the SimEngine,
// simulating eight Mica workstations on one shared Ethernet.
//
// Each op restores every file's initial (mtime, hash), runs a full build of
// a seeded random makefile, and reads the files back; hashes, mtimes and
// the number of commands run must equal the serial make.  The simulator
// runs in virtual time, so the wall-clock cost measured here is the
// simulator's own: task handoff, event queue, coherence and network
// models.  Ops cycle over a pool of seeded makefiles.
#include <array>

#include "harness.hpp"

#include "jade/apps/jmake.hpp"
#include "jade/mach/presets.hpp"
#include "jade/support/rng.hpp"

namespace perfbench {
namespace {

constexpr int kMachines = 8;
constexpr int kPool = 32;
constexpr int kFiles = 96;
constexpr double kDensity = 0.05;

/// A makefile plus the file contents a build starts from, as upload_make
/// writes them: sources hold their hash, derived files start empty.
struct Build {
  jade::apps::Makefile mf;
  std::vector<std::array<std::int64_t, 2>> initial;
  jade::apps::BuildResult expect;
};

Build make_build(std::uint64_t seed) {
  Build b;
  b.mf = jade::apps::random_makefile(kFiles, kDensity, seed);
  std::vector<bool> derived(static_cast<std::size_t>(b.mf.files), false);
  for (const auto& r : b.mf.rules)
    derived[static_cast<std::size_t>(r.target)] = true;
  for (int f = 0; f < b.mf.files; ++f) {
    const auto uf = static_cast<std::size_t>(f);
    b.initial.push_back(
        {b.mf.initial_mtime[uf],
         derived[uf] ? 0 : static_cast<std::int64_t>(0x51ceull + uf)});
  }
  b.expect = jade::apps::make_serial(b.mf);
  return b;
}

class SimMake final : public SequentialWorkload {
 public:
  SimMake(std::uint64_t seed, bool trace) : seed_(seed), trace_(trace) {}

  void prepare() override {
    jade::Rng rng(seed_);
    for (int k = 0; k < kPool; ++k) builds_.push_back(make_build(rng.next_u64()));
  }

 private:
  jade::RuntimeConfig runtime_config() const override {
    jade::RuntimeConfig cfg;
    cfg.engine = jade::EngineKind::kSim;
    cfg.cluster = jade::presets::mica(kMachines);
    cfg.obs = obs_config(trace_);
    return cfg;
  }

  void upload() override {
    uploaded_.clear();
    for (const Build& b : builds_)
      uploaded_.push_back(jade::apps::upload_make(*rt_, b.mf));
  }

  Op run_op(std::size_t i) override {
    const std::size_t k = i % kPool;
    const Build& b = builds_[k];
    const jade::apps::JadeMake& jm = uploaded_[k];
    OpTimer t;
    t.start = Clock::now();
    for (std::size_t f = 0; f < jm.files.size(); ++f)
      rt_->put<std::int64_t>(jm.files[f], b.initial[f]);
    t.put_done = Clock::now();
    int commands = 0;
    rt_->run([&](jade::TaskContext& ctx) {
      t.root_begin = Clock::now();
      jade::apps::make_jade(ctx, jm, &commands);
      t.root_end = Clock::now();
    });
    t.run_done = Clock::now();
    const jade::apps::BuildResult got = jade::apps::download_make(*rt_, jm);
    t.get_done = Clock::now();

    const bool ok = got.hash == b.expect.hash &&
                    got.mtime == b.expect.mtime &&
                    commands == b.expect.commands_run;
    return finish_op(t, ok);
  }

  const std::uint64_t seed_;
  const bool trace_;
  std::vector<Build> builds_;
  std::vector<jade::apps::JadeMake> uploaded_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_make(std::uint64_t seed, bool trace) {
  return std::make_unique<SimMake>(seed, trace);
}

}  // namespace perfbench
