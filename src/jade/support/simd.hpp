// SIMD portability layer for data-parallel kernel bodies.
//
// The apps' inner loops (src/jade/apps/kernels_soa.cpp) are written so that
// GCC and Clang auto-vectorize them from portable C++ — no ISA intrinsics.
// This header supplies the two annotations those loops need:
//
//   * JADE_VEC_LOOP      a loop annotation asserting no loop-carried
//                        dependences (GCC `ivdep`, Clang `vectorize(enable)`),
//                        which together with JADE_RESTRICT pointers lets the
//                        compiler emit packed arithmetic.  On an unknown
//                        compiler both expand to nothing and the loop simply
//                        runs scalar — the scalar fallback is the same code.
//   * JADE_RESTRICT      non-aliasing qualifier for kernel pointer params.
//
// A structure-of-arrays payload needs no type of its own: a flat shared
// object holding K equal-length component blocks ([x0..xn, y0..yn, z0..zn])
// is byte-for-byte an ordinary scalar array to TypeDescriptor/WireWriter, so
// every engine and the coherence protocol move it unchanged, and a kernel
// takes one pointer per lane.
//
// Alignment contract: kernels must tolerate any alignment (shared-object
// buffers only guarantee the allocator's 16 bytes; compilers peel or use
// unaligned loads).  Host-side scratch that wants the full vector width can
// use AlignedBuffer, which over-aligns to kVectorAlign.
//
// Verifying vectorization: tools/check_vectorization.py recompiles the
// kernel translation unit with `-fopt-info-vec` and fails if any `// VEC:`
// tagged loop is not vectorized; CI runs it on every push (docs/
// PERFORMANCE.md, "Kernel data layout").
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__clang__)
#define JADE_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#define JADE_RESTRICT __restrict__
#elif defined(__GNUC__)
#define JADE_VEC_LOOP _Pragma("GCC ivdep")
#define JADE_RESTRICT __restrict__
#else
#define JADE_VEC_LOOP
#define JADE_RESTRICT
#endif

namespace jade::simd {

/// Over-alignment for host-side scratch: one cache line, enough for any
/// vector unit this code will meet (AVX-512 needs 64).
inline constexpr std::size_t kVectorAlign = 64;

/// Host-side scratch aligned to kVectorAlign (shared-object buffers make no
/// such promise; kernels never require it, but aligned scratch lets the
/// compiler skip peeling on the hot gather buffers).
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t count) { resize(count); }
  ~AlignedBuffer() { release(); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& o) noexcept
      : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }

  void resize(std::size_t count) {
    if (count == size_) return;
    release();
    if (count > 0) {
      data_ = static_cast<T*>(::operator new(
          count * sizeof(T), std::align_val_t(kVectorAlign)));
      for (std::size_t i = 0; i < count; ++i) data_[i] = T{};
    }
    size_ = count;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void release() {
    if (data_ != nullptr)
      ::operator delete(data_, std::align_val_t(kVectorAlign));
    data_ = nullptr;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace jade::simd
