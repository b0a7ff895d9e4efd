#include "jade/apps/relax.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "jade/apps/kernels.hpp"
#include "jade/cluster/registry.hpp"
#include "jade/support/error.hpp"
#include "jade/support/rng.hpp"

namespace jade::apps {

namespace {

using cluster::get_ref;
using cluster::put_ref;

std::vector<int> make_strip_starts(int rows, int strips) {
  JADE_ASSERT(strips >= 1 && strips <= rows);
  std::vector<int> start(strips + 1, 0);
  for (int s = 0; s <= strips; ++s)
    start[s] = static_cast<int>((static_cast<long long>(rows) * s) / strips);
  return start;
}

/// One strip sweep.  Wire args: src strip ref, dst strip ref, optional
/// neighbor-strip refs (for the halo rows), the strip's global row range,
/// grid shape, omega, charge rate, pipelined flag.
///
/// In pipelined mode the neighbor strips were declared df_rd; the body
/// converts each to rd, copies the single halo row it needs, and
/// immediately retires the right with no_rd — so the *next* iteration's
/// writer of that neighbor strip is unblocked as soon as the copy lands,
/// while this task is still relaxing its own rows.  That early release is
/// the whole point of the workload (partial retirement under iteration).
const int kSweepStrip = cluster::BodyRegistry::instance().ensure(
    "relax.sweep_strip", [](TaskContext& t, WireReader& r) {
      const auto src = get_ref<double>(r);
      const auto dst = get_ref<double>(r);
      const bool has_up = r.get_u8() != 0;
      const auto up = has_up ? get_ref<double>(r) : SharedRef<double>();
      const bool has_down = r.get_u8() != 0;
      const auto down = has_down ? get_ref<double>(r) : SharedRef<double>();
      const int lo = static_cast<int>(r.get_u32());
      const int hi = static_cast<int>(r.get_u32());
      const int rows = static_cast<int>(r.get_u32());
      const int cols = static_cast<int>(r.get_u32());
      const double omega = r.get_f64();
      const double flops_per_cell = r.get_f64();
      const bool pipelined = r.get_u8() != 0;
      const auto ucols = static_cast<std::size_t>(cols);

      int interior = 0;
      for (int gr = lo; gr < hi; ++gr)
        if (gr > 0 && gr < rows - 1) ++interior;
      t.charge(interior * static_cast<double>(cols) * flops_per_cell +
               (hi - lo - interior) * static_cast<double>(cols));

      // Halo rows first: copy, then retire, then compute — the retire is
      // what lets the neighbor's next-iteration sweep start early.
      std::vector<double> halo_up(has_up ? ucols : 0);
      std::vector<double> halo_down(has_down ? ucols : 0);
      if (has_up) {
        if (pipelined) t.with_cont([&](AccessDecl& d) { d.rd(up); });
        auto span = t.read(up);
        std::copy_n(span.data() + (span.size() - ucols), ucols,
                    halo_up.data());
        if (pipelined) t.with_cont([&](AccessDecl& d) { d.no_rd(up); });
      }
      if (has_down) {
        if (pipelined) t.with_cont([&](AccessDecl& d) { d.rd(down); });
        auto span = t.read(down);
        std::copy_n(span.data(), ucols, halo_down.data());
        if (pipelined) t.with_cont([&](AccessDecl& d) { d.no_rd(down); });
      }

      auto in = t.read(src);
      auto out = t.write(dst);
      const int hn = hi - lo;
      for (int lr = 0; lr < hn; ++lr) {
        const int gr = lo + lr;
        const double* mid = in.data() + static_cast<std::size_t>(lr) * ucols;
        double* o = out.data() + static_cast<std::size_t>(lr) * ucols;
        if (gr == 0 || gr == rows - 1) {
          // Dirichlet boundary row: carried through unchanged.
          std::copy_n(mid, ucols, o);
          continue;
        }
        const double* up_row =
            lr == 0 ? halo_up.data() : mid - ucols;
        const double* down_row =
            lr == hn - 1 ? halo_down.data() : mid + ucols;
        kernels::relax_row_soa(up_row, mid, down_row, cols, omega, o);
      }
    });

}  // namespace

RelaxState make_relax(const RelaxConfig& config) {
  RelaxState s;
  s.rows = config.rows;
  s.cols = config.cols;
  s.grid.resize(static_cast<std::size_t>(config.rows) * config.cols);
  Rng rng(config.seed);
  for (double& v : s.grid) v = rng.next_double(-1.0, 1.0);
  return s;
}

void relax_run_serial(const RelaxConfig& config, RelaxState& state) {
  // Same kernels, same double-buffered sweep structure as the Jade version
  // (which only adds strip-boundary halo *copies* — exact, so the engines
  // reproduce this bit-for-bit).
  const int rows = state.rows;
  const int cols = state.cols;
  const auto ucols = static_cast<std::size_t>(cols);
  std::vector<double> other(state.grid.size());
  std::vector<double>* src = &state.grid;
  std::vector<double>* dst = &other;
  for (int it = 0; it < config.iterations; ++it) {
    for (int r = 0; r < rows; ++r) {
      const double* mid = src->data() + static_cast<std::size_t>(r) * ucols;
      double* o = dst->data() + static_cast<std::size_t>(r) * ucols;
      if (r == 0 || r == rows - 1) {
        std::copy_n(mid, ucols, o);
        continue;
      }
      kernels::relax_row_soa(mid - ucols, mid, mid + ucols, cols,
                             config.omega, o);
    }
    std::swap(src, dst);
  }
  if (src != &state.grid) state.grid = *src;
}

double relax_residual(const RelaxState& state) {
  double worst = 0.0;
  for (int r = 1; r < state.rows - 1; ++r) {
    for (int c = 1; c < state.cols - 1; ++c) {
      const double avg = 0.25 * ((state.at(r - 1, c) + state.at(r + 1, c)) +
                                 (state.at(r, c - 1) + state.at(r, c + 1)));
      worst = std::max(worst, std::abs(state.at(r, c) - avg));
    }
  }
  return worst;
}

double relax_checksum(const RelaxState& state) {
  double acc = 0;
  for (std::size_t i = 0; i < state.grid.size(); ++i)
    acc += state.grid[i] * (1.0 + 1e-3 * static_cast<double>(i % 97));
  return acc;
}

JadeRelax upload_relax(Runtime& rt, const RelaxConfig& config,
                       const RelaxState& state) {
  JADE_ASSERT(state.rows == config.rows && state.cols == config.cols);
  JADE_ASSERT(config.rows >= 3 && config.cols >= 3);
  JadeRelax w;
  w.config = config;
  w.strip_start = make_strip_starts(config.rows, config.strips);
  const auto ucols = static_cast<std::size_t>(config.cols);
  for (int s = 0; s < config.strips; ++s) {
    const int lo = w.strip_start[s];
    const int hi = w.strip_start[s + 1];
    std::vector<double> rows_block(
        state.grid.begin() + static_cast<std::ptrdiff_t>(lo) * config.cols,
        state.grid.begin() + static_cast<std::ptrdiff_t>(hi) * config.cols);
    w.buf_a.push_back(
        rt.alloc_init<double>(rows_block, "relaxA" + std::to_string(s)));
    // Every sweep writes every cell of its dst strip, so B starts raw.
    w.buf_b.push_back(rt.alloc<double>(
        static_cast<std::size_t>(hi - lo) * ucols,
        "relaxB" + std::to_string(s)));
  }
  return w;
}

void relax_run_jade(TaskContext& ctx, const JadeRelax& w) {
  const RelaxConfig config = w.config;
  for (int it = 0; it < config.iterations; ++it) {
    const auto& src = (it % 2 == 0) ? w.buf_a : w.buf_b;
    const auto& dst = (it % 2 == 0) ? w.buf_b : w.buf_a;
    for (int s = 0; s < config.strips; ++s) {
      const int lo = w.strip_start[s];
      const int hi = w.strip_start[s + 1];
      const bool has_up = s > 0;
      const bool has_down = s + 1 < config.strips;
      WireWriter args;
      put_ref(args, src[s]);
      put_ref(args, dst[s]);
      args.put_u8(has_up ? 1 : 0);
      if (has_up) put_ref(args, src[s - 1]);
      args.put_u8(has_down ? 1 : 0);
      if (has_down) put_ref(args, src[s + 1]);
      args.put_u32(static_cast<std::uint32_t>(lo));
      args.put_u32(static_cast<std::uint32_t>(hi));
      args.put_u32(static_cast<std::uint32_t>(config.rows));
      args.put_u32(static_cast<std::uint32_t>(config.cols));
      args.put_f64(config.omega);
      args.put_f64(config.flops_per_cell);
      args.put_u8(config.pipelined ? 1 : 0);
      cluster::spawn(
          ctx, kSweepStrip, std::move(args),
          [&](AccessDecl& d) {
            d.rd(src[s]);
            if (has_up) {
              if (config.pipelined)
                d.df_rd(src[s - 1]);
              else
                d.rd(src[s - 1]);
            }
            if (has_down) {
              if (config.pipelined)
                d.df_rd(src[s + 1]);
              else
                d.rd(src[s + 1]);
            }
            d.wr(dst[s]);
          },
          "Relax(i" + std::to_string(it) + ",s" + std::to_string(s) + ")");
    }
  }
}

RelaxState download_relax(Runtime& rt, const JadeRelax& w) {
  RelaxState s;
  s.rows = w.config.rows;
  s.cols = w.config.cols;
  s.grid.resize(static_cast<std::size_t>(s.rows) * s.cols);
  const auto& fin =
      (w.config.iterations % 2 == 0) ? w.buf_a : w.buf_b;
  for (int st = 0; st < w.config.strips; ++st) {
    const int lo = w.strip_start[st];
    const std::vector<double> block = rt.get(fin[st]);
    std::copy(block.begin(), block.end(),
              s.grid.begin() + static_cast<std::ptrdiff_t>(lo) * s.cols);
  }
  return s;
}

}  // namespace jade::apps
