// Generation-level erasure code on top of the GF(256) core (gf256.h).
//
// A *generation* is N consecutive data symbols protected by K parity
// symbols.  Two schemes share one decoder interface, mirroring the libfec
// scheme-id framing (SNIPPETS.md Snippet 1):
//
//   scheme 0 (kSchemeXor):   K == 1, parity_0 = XOR of all data symbols.
//                            The XOR fast path: one table-free pass,
//                            repairs any single erasure.
//   scheme 1 (kSchemeGf256): K in [2..4], parity_j = sum_i coeff(j,i)*data_i
//                            with Cauchy coefficients, repairs any e <= K
//                            erasures from any K surviving parities.
//
// Symbols are byte strings of possibly different lengths; the encoder pads
// every symbol with zeros to the longest length in the generation, so the
// caller must frame each symbol's true length *inside* the symbol bytes
// (FecSession prepends a u32 length; see srm/fec/session.h).
//
// The layer is pure: no agent, trace, or simulator types, so the tests can
// drive exhaustive erasure patterns without a network.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "srm/fec/gf256.h"

namespace srm::fec {

inline constexpr std::uint8_t kSchemeXor = 0;
inline constexpr std::uint8_t kSchemeGf256 = 1;
inline constexpr std::size_t kMaxParity = kMaxParityRows;  // K <= 4

using Symbol = std::vector<std::uint8_t>;

// Scheme implied by the parity count: K==1 is plain XOR, K>=2 needs GF(256).
std::uint8_t scheme_for(std::size_t k);

// Encodes `k` parity symbols over `data` (n = data.size() symbols, each
// padded to the longest symbol's length).  Returns the k parity bodies, all
// of size padded_len(data).  k must be in [1..kMaxParity] and n nonzero.
std::vector<Symbol> encode(const std::vector<Symbol>& data, std::size_t k);

// The padded symbol width encode() used (max data symbol size; 0 if empty).
std::size_t padded_len(const std::vector<Symbol>& data);

// Recovers missing data symbols of an n-symbol generation.
//   data:     n slots; present symbols at their index (shorter bodies are
//             zero-extended to `width` internally), missing slots nullptr.
//   parities: surviving (parity_index j, body) pairs, bodies of size `width`.
//   scheme:   kSchemeXor or kSchemeGf256 (selects the coefficient matrix).
// Returns (data_index, recovered body of size `width`) pairs, one per
// missing slot, in ascending index order.  Returns an empty vector when the
// erasure count exceeds parities.size() or inputs are inconsistent — the
// caller then falls back to SRM request/repair.
std::vector<std::pair<std::size_t, Symbol>> decode(
    std::uint8_t scheme, const std::vector<const Symbol*>& data,
    const std::vector<std::pair<std::size_t, Symbol>>& parities,
    std::size_t width);

}  // namespace srm::fec
