// The single registry of the paper's matmul algorithms (Section IV).
//
// Every layer that enumerates or names algorithms — the capow::matmul
// facade, the harness's ExperimentConfig matrix, the capow-report tables,
// the bench figure drivers, checkpoint parsing — pulls from this table.
// Adding an algorithm is a registry row here plus the two switches in
// api/matmul.cpp: the dispatch case that runs it (matmul) and the one
// that models it (matmul_profile). Nothing outside api switches on an
// AlgorithmId.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace capow::core {

/// The paper's three multiplication algorithms. Values are stable: they
/// index checkpoint files and JSONL exports written by earlier builds.
enum class AlgorithmId : int { kOpenBlas = 0, kStrassen = 1, kCaps = 2 };

/// Every id, in registry order: the list the harness matrix, the figure
/// drivers and capow-report loop over.
inline constexpr AlgorithmId kAllAlgorithms[] = {
    AlgorithmId::kOpenBlas, AlgorithmId::kStrassen, AlgorithmId::kCaps};

/// One registry row.
struct AlgorithmInfo {
  AlgorithmId id{};
  const char* name = "";  ///< display name used in tables and exports
  const char* key = "";   ///< lowercase machine key (CLI flags, JSONL)
  const char* description = "";
};

/// All registered algorithms, in AlgorithmId order.
std::span<const AlgorithmInfo> algorithm_registry() noexcept;

/// Registry row for `id`; falls back to the OpenBLAS row for an
/// out-of-range id (callers treat the registry as total).
const AlgorithmInfo& algorithm_info(AlgorithmId id) noexcept;

/// Lookup by display name or machine key; null when unknown.
const AlgorithmInfo* find_algorithm(std::string_view name_or_key) noexcept;

/// Display name ("OpenBLAS", "Strassen", "CAPS").
const char* algorithm_name(AlgorithmId id) noexcept;

}  // namespace capow::core
