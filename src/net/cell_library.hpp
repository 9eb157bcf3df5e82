// Standard-cell library: per-cell electrical constants for the linear
// delay model plus the boolean function (which cells are drive variants of
// one another).
//
// The values in default_library() are 0.13um-flavored: drive resistances
// around a kOhm, input caps of a few fF, intrinsic delays of tens of ps.
// Absolute accuracy is not the goal — the paper's experiments depend on the
// relative structure (drive strength vs. load, coupling vs. ground cap).
#pragma once

#include <cstddef>

#include <string>
#include <vector>

#include "util/assert.hpp"

namespace tka::net {

/// Boolean function of a cell (single-output).
enum class CellFunc {
  kBuf,
  kInv,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
};

/// One library cell.
struct CellType {
  std::string name;
  CellFunc func = CellFunc::kBuf;
  int num_inputs = 1;
  double drive_res_kohm = 1.0;   ///< linear driver resistance
  double input_cap_pf = 0.003;   ///< per-pin input capacitance
  double intrinsic_delay_ns = 0.02;
  double output_cap_pf = 0.002;  ///< driver self-loading
};

/// True if `to` may replace `from` on a gate: the same function and pin
/// count, so only the drive changes.
inline bool is_drive_variant(const CellType& from, const CellType& to) {
  return from.func == to.func && from.num_inputs == to.num_inputs;
}

/// Immutable collection of cell types, addressed by index.
class CellLibrary {
 public:
  explicit CellLibrary(std::vector<CellType> cells) : cells_(std::move(cells)) {
    TKA_ASSERT(!cells_.empty());
  }

  size_t size() const { return cells_.size(); }
  const CellType& cell(size_t index) const {
    TKA_ASSERT(index < cells_.size());
    return cells_[index];
  }

  /// Index of the cell named `name`; throws tka::Error if absent.
  size_t index_of(const std::string& name) const;

  /// True if a cell named `name` exists.
  bool contains(const std::string& name) const;

  /// Indices of all cells with exactly `num_inputs` inputs.
  std::vector<size_t> cells_with_inputs(int num_inputs) const;

  /// The built-in 0.13um-flavored library (INV/BUF/NAND2/NOR2/AND2/OR2/
  /// XOR2/NAND3/NOR3/AND3/OR3 in two drive strengths).
  static const CellLibrary& default_library();

 private:
  std::vector<CellType> cells_;
};

}  // namespace tka::net
