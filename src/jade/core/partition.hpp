// PartitionedArray — the paper's data-decomposition idiom as a utility.
//
// Section 2: the programmer specifies "a decomposition of the data into the
// atomic units that the program will access".  Almost every coarse-grain
// Jade program starts by cutting a large array into per-part shared objects
// (matrix columns, molecule groups, frame buffers).  PartitionedArray
// packages that: it allocates `parts` shared objects covering `size`
// elements, with scatter/gather to host vectors and index arithmetic, so
// applications declare accesses per part:
//
//   PartitionedArray<double> x(rt, n, parts, "x");
//   ctx.withonly([&](AccessDecl& d) { d.rd_wr(x.part(p)); }, ...);
#pragma once

#include <string>
#include <vector>

#include "jade/core/runtime.hpp"

namespace jade {

template <typename T>
class PartitionedArray {
 public:
  /// Allocates `parts` shared objects covering `size` elements, split as
  /// evenly as possible (earlier parts take the remainder).  Part homes
  /// follow the runtime's default placement (round-robin on SimEngine).
  PartitionedArray(Runtime& rt, std::size_t size, std::size_t parts,
                   const std::string& name = "part") {
    JADE_ASSERT_MSG(parts >= 1 && parts <= size,
                    "parts must be in [1, size]");
    starts_.reserve(parts + 1);
    for (std::size_t p = 0; p <= parts; ++p)
      starts_.push_back(size * p / parts);
    refs_.reserve(parts);
    for (std::size_t p = 0; p < parts; ++p)
      refs_.push_back(rt.alloc<T>(starts_[p + 1] - starts_[p],
                                  name + std::to_string(p)));
  }

  std::size_t size() const { return starts_.back(); }
  std::size_t parts() const { return refs_.size(); }

  /// The shared object holding part `p`.
  const SharedRef<T>& part(std::size_t p) const { return refs_[p]; }

  /// First element index of part `p`; part p covers [begin(p), end(p)).
  std::size_t begin(std::size_t p) const { return starts_[p]; }
  std::size_t end(std::size_t p) const { return starts_[p + 1]; }
  std::size_t part_size(std::size_t p) const {
    return starts_[p + 1] - starts_[p];
  }

  /// Which part element index `i` lives in.
  std::size_t part_of(std::size_t i) const {
    JADE_ASSERT(i < size());
    // Parts are near-equal; start from the proportional guess and fix up.
    std::size_t p = i * parts() / size();
    while (starts_[p] > i) --p;
    while (starts_[p + 1] <= i) ++p;
    return p;
  }

  /// Host-side scatter of `data` (size() elements) into the parts.
  void put(Runtime& rt, std::span<const T> data) const {
    JADE_ASSERT(data.size() == size());
    for (std::size_t p = 0; p < parts(); ++p)
      rt.put(refs_[p], data.subspan(begin(p), part_size(p)));
  }

  /// Host-side gather of all parts into one vector.
  std::vector<T> get(Runtime& rt) const {
    std::vector<T> out(size());
    for (std::size_t p = 0; p < parts(); ++p) {
      const auto v = rt.get(refs_[p]);
      std::copy(v.begin(), v.end(),
                out.begin() + static_cast<std::ptrdiff_t>(begin(p)));
    }
    return out;
  }

 private:
  std::vector<std::size_t> starts_;
  std::vector<SharedRef<T>> refs_;
};

}  // namespace jade
