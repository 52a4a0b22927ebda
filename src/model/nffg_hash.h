// Structural content hash over an NFFG's serialized identity.
//
// content_hash() folds exactly the information to_json() serializes (and
// nothing more) into a 64-bit FNV-1a digest, so two NFFGs that hash equal
// have byte-identical JSON configs (modulo the 2^-64 collision odds). The
// converse does not hold: doubles are hashed by bit pattern but printed
// at six significant digits ("%.6g"), so values that differ only past the
// sixth digit serialize alike and hash differently. The orchestrator's
// push path uses the hash for dirty tracking, which needs only the first
// direction: an unchanged hash proves nothing needs pushing, and a
// spurious change costs one redundant push. A clean section is detected
// without building the JSON string, which on large views is the dominant
// cost of a no-op push.
//
// Contract (DESIGN.md §11): every field to_json() emits — including fields
// it omits conditionally, since the omission is a deterministic function of
// the value — feeds the hash; orchestrator-local annotations that are not
// serialized (BisBis::health_penalty) are excluded. Doubles are hashed by
// bit pattern, which distinguishes at least every pair of values JSON
// prints differently.
#pragma once

#include <cstdint>

#include "model/nffg.h"

namespace unify::model {

/// 64-bit FNV-1a offset basis; the running state of a hash in progress.
inline constexpr std::uint64_t kHashSeed = 0xCBF29CE484222325ULL;

/// Digest of the whole NFFG (everything to_json() serializes).
[[nodiscard]] std::uint64_t content_hash(const Nffg& nffg) noexcept;

}  // namespace unify::model
