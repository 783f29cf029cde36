// GF(256) arithmetic core for the block-FEC engine (ARCHITECTURE.md §11).
//
// Sec. VII-B of the SRM paper points at parity-based loss recovery
// (Nonnenmacher/Biersack/Towsley) as the way one repair can answer many
// distinct losses.  A single XOR parity covers exactly one erasure per
// block; covering K erasures needs K independent parity equations over a
// field larger than GF(2).  This header is that field:
// GF(2^8) with the standard Reed-Solomon reduction polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator alpha = 2, implemented as
// log/antilog tables so multiply and divide are two lookups and an add.
//
// Coefficients come from a Cauchy matrix rather than a plain Vandermonde
// one: coeff(j, i) = 1 / (x_j + y_i) with x_j = j (parity rows, j < 4) and
// y_i = 4 + i (data columns), all distinct, addition being XOR.  Every
// square submatrix of a Cauchy matrix is invertible, so ANY e <= K surviving
// parities can repair ANY e missing data symbols — the property the decoder
// (gf_solve, Gaussian elimination over GF(256)) relies on.  Vandermonde
// submatrices over GF(2^8) do not have this guarantee, which is the classic
// trap in "RS via Vandermonde" codes.
//
// This layer is pure byte math: no Payload, no agent, no simulator types.
// srm/fec/block_code.h builds generation encode/decode on top of it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace srm::fec {

// Parity rows are x_j = j, data columns y_i = kCauchyDataOffset + i; keeping
// them disjoint is what makes every 1/(x_j ^ y_i) well defined.
inline constexpr std::size_t kMaxParityRows = 4;
inline constexpr std::uint8_t kCauchyDataOffset = 4;
// Largest generation the Cauchy column range supports (y_i <= 255).
inline constexpr std::size_t kMaxDataColumns = 252 - kMaxParityRows;

// Exponential table (alpha^i for i in [0, 255], alpha = 2 mod 0x11D) and its
// inverse.  log(0) is undefined and stored as 0; callers must special-case
// zero operands, as gf_mul/gf_inv below do.
const std::array<std::uint8_t, 256>& gf_exp_table();
const std::array<std::uint8_t, 256>& gf_log_table();

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);
// Multiplicative inverse; a must be nonzero (throws std::domain_error).
std::uint8_t gf_inv(std::uint8_t a);
// a / b with b nonzero (throws std::domain_error).
std::uint8_t gf_div(std::uint8_t a, std::uint8_t b);

// The Cauchy coefficient of parity row j (< kMaxParityRows) applied to data
// column i (< kMaxDataColumns).
std::uint8_t cauchy_coeff(std::size_t j, std::size_t i);

// dst[b] ^= c * src[b] for b in [0, len) — the encode/decode inner loop.
void gf_mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                std::size_t len);

// Solves the e x e linear system A * X = B over GF(256) in place, where
// each unknown X[r] and each right-hand side B[r] is a byte row of width
// `width` (the padded symbol length).  On return B holds X.  Returns false
// if A is singular (never the case for Cauchy submatrices; kept as a guard
// against malformed inputs).
bool gf_solve(std::vector<std::vector<std::uint8_t>>& a,
              std::vector<std::vector<std::uint8_t>>& b, std::size_t width);

}  // namespace srm::fec
