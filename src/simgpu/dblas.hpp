// Metered device BLAS/solver: the cuBLAS/cuSOLVER surface the baseline (non-
// fused) ADMM is composed from.
//
// Each wrapper executes the host implementation from la/ and records the
// exact global-memory traffic the equivalent cuBLAS call would generate —
// every operand read once, every output written once, no inter-call reuse.
// That "no reuse between kernels" property is precisely the inefficiency the
// paper's operation fusion removes (Section 4.3.1), so metering it faithfully
// is what makes the Figure 4 ablation reproducible. Every call records its
// launches in program order, like every other kernel.
#pragma once

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "simgpu/device.hpp"

namespace cstf::simgpu {

/// The traffic and work dgemm() records for an m x n result with inner
/// dimension k. Shared with callers that run a GEMM's arithmetic some other
/// way but meter it as this launch (the row-tiled ADMM pass), so the two
/// cannot drift apart.
KernelStats dgemm_stats(index_t m, index_t n, index_t k, real_t beta);

/// C = alpha*op(A)*op(B) + beta*C (cublasDgemm).
void dgemm(Device& dev, la::Op op_a, la::Op op_b, real_t alpha,
           const Matrix& a, const Matrix& b, real_t beta, Matrix& c);

/// S = A^T A (cublasDsyrk, full storage).
void dsyrk_gram(Device& dev, const Matrix& a, Matrix& s);

/// C = alpha*A + beta*B elementwise (cublasDgeam, no transpose). C may alias
/// A and/or B (la::geam's non-transposed path is index-aligned), which the
/// unfused ADMM's in-place dual update relies on.
void dgeam(Device& dev, real_t alpha, const Matrix& a, real_t beta,
           const Matrix& b, Matrix& c);

/// Cholesky factorization of S (cusolverDnDpotrf).
void dpotrf(Device& dev, const Matrix& s, Matrix& l);

/// In-place Cholesky solve of (LL^T) X = B (cusolverDnDpotrs): two
/// triangular solves, whose serialized substitution chains are charged to
/// KernelStats::serial_depth — the GPU-hostile behaviour pre-inversion
/// removes.
void dpotrs(Device& dev, const Matrix& l, Matrix& b);

/// Right-side Cholesky solve X (L L^T) = B in place, B tall-skinny (I x R).
/// This is the triangular-solve step of the baseline (non-pre-inverted)
/// ADMM: two substitution passes over B, each row a length-2R dependent
/// chain, parallel only across rows — the serialization Section 4.3.2 calls
/// out.
void dpotrs_right(Device& dev, const Matrix& l, Matrix& b);

/// Explicit SPD inverse via Cholesky solve against the identity; the
/// pre-inversion step of cuADMM (paid once per outer iteration).
void dpotri(Device& dev, const Matrix& l, Matrix& inverse);

/// Squared Frobenius norm with one read of the operand (cublasDnrm2-style
/// reduction).
real_t dnrm2_sq(Device& dev, const Matrix& a);

}  // namespace cstf::simgpu
