// Jade sparse Cholesky factorization — the paper's worked example
// (Section 3, Figure 6).
//
// Each matrix column is one shared object; the column-pointer and row-index
// structures are read-only shared objects.  factor_jade() is a direct
// transcription of Figure 6: per column, one InternalUpdate task declaring
// rd_wr on its column, then one ExternalUpdate task per affected column
// declaring rd_wr on the target and rd on the source.  The Jade serializer
// extracts exactly the dynamic task graph of Figure 4.
//
// factor_jade_blocked() is the "supernode" variant the paper alludes to
// ("the task grain size is increased further by aggregating adjacent
// columns"): contiguous column blocks become single shared objects and the
// per-column updates aggregate into per-block tasks.  The applied update
// order is identical, so the blocked factor is bit-equal to the plain one.
#pragma once

#include <vector>

#include "jade/apps/spd_matrix.hpp"
#include "jade/core/runtime.hpp"

namespace jade::apps {

/// The matrix of Figure 5: shared column objects + shared index structures
/// (with host copies of the immutable index data for task creation, just as
/// the paper's factor driver reads r[j] while creating tasks).
struct JadeSparse {
  int n = 0;
  std::vector<int> col_ptr;  ///< host copy (immutable)
  std::vector<int> row_idx;  ///< host copy (immutable)
  SharedRef<int> col_ptr_obj;
  SharedRef<int> row_idx_obj;
  std::vector<SharedRef<double>> cols;
};

/// Uploads a host matrix into shared objects (columns distributed
/// round-robin across machines by the runtime's default placement).
JadeSparse upload_matrix(Runtime& rt, const SparseMatrix& m);

/// Reads the factored columns back into host form.
SparseMatrix download_matrix(Runtime& rt, const JadeSparse& jm);

/// Creates the factorization task graph (call from within rt.run()).
void factor_jade(TaskContext& ctx, const JadeSparse& m);

/// Column-blocked ("supernode") representation: ceil(n/block) shared
/// objects, each holding `block` consecutive columns' values.
struct JadeBlockedSparse {
  int n = 0;
  int block = 1;
  std::vector<int> col_ptr;
  std::vector<int> row_idx;
  /// Offset of column i's values inside its block object.
  std::vector<int> col_offset;
  SharedRef<int> col_ptr_obj;
  SharedRef<int> row_idx_obj;
  std::vector<SharedRef<double>> blocks;

  int block_count() const {
    return (n + block - 1) / block;
  }
  int first_col(int b) const { return b * block; }
  int last_col(int b) const { return std::min(n, (b + 1) * block); }
};

JadeBlockedSparse upload_blocked(Runtime& rt, const SparseMatrix& m,
                                 int block);
SparseMatrix download_blocked(Runtime& rt, const JadeBlockedSparse& jm);
void factor_jade_blocked(TaskContext& ctx, const JadeBlockedSparse& m);

/// Total flops of a full factorization (for bench reporting).
double factor_flops(const SparseMatrix& m);

}  // namespace jade::apps
