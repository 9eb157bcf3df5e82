#include "net/cell_library.hpp"

#include "util/error.hpp"

namespace tka::net {

size_t CellLibrary::index_of(const std::string& name) const {
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return i;
  }
  throw Error("CellLibrary: unknown cell '" + name + "'");
}

bool CellLibrary::contains(const std::string& name) const {
  for (const CellType& c : cells_) {
    if (c.name == name) return true;
  }
  return false;
}

std::vector<size_t> CellLibrary::cells_with_inputs(int num_inputs) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].num_inputs == num_inputs) out.push_back(i);
  }
  return out;
}

const CellLibrary& CellLibrary::default_library() {
  // Two drive strengths (X1 weak, X2 strong). Intrinsic delays loosely
  // follow gate complexity; caps follow input count.
  static const CellLibrary lib([] {
    std::vector<CellType> cells;
    auto add = [&cells](const char* name, CellFunc f, int nin, double r,
                        double cin, double d) {
      CellType c;
      c.name = name;
      c.func = f;
      c.num_inputs = nin;
      c.drive_res_kohm = r;
      c.input_cap_pf = cin;
      c.intrinsic_delay_ns = d;
      c.output_cap_pf = 0.6 * cin;
      cells.push_back(c);
    };
    add("INVX1", CellFunc::kInv, 1, 1.60, 0.0030, 0.015);
    add("INVX2", CellFunc::kInv, 1, 0.80, 0.0055, 0.013);
    add("BUFX1", CellFunc::kBuf, 1, 1.50, 0.0032, 0.030);
    add("BUFX2", CellFunc::kBuf, 1, 0.75, 0.0058, 0.026);
    add("NAND2X1", CellFunc::kNand, 2, 1.80, 0.0034, 0.022);
    add("NAND2X2", CellFunc::kNand, 2, 0.90, 0.0062, 0.019);
    add("NOR2X1", CellFunc::kNor, 2, 2.20, 0.0034, 0.026);
    add("NOR2X2", CellFunc::kNor, 2, 1.10, 0.0062, 0.022);
    add("AND2X1", CellFunc::kAnd, 2, 1.70, 0.0033, 0.038);
    add("OR2X1", CellFunc::kOr, 2, 1.90, 0.0033, 0.042);
    add("XOR2X1", CellFunc::kXor, 2, 2.40, 0.0046, 0.055);
    add("XNOR2X1", CellFunc::kXnor, 2, 2.40, 0.0046, 0.057);
    add("NAND3X1", CellFunc::kNand, 3, 2.10, 0.0036, 0.030);
    add("NOR3X1", CellFunc::kNor, 3, 2.80, 0.0036, 0.036);
    add("AND3X1", CellFunc::kAnd, 3, 1.90, 0.0035, 0.048);
    add("OR3X1", CellFunc::kOr, 3, 2.20, 0.0035, 0.052);
    add("NAND4X1", CellFunc::kNand, 4, 2.40, 0.0038, 0.038);
    add("NOR4X1", CellFunc::kNor, 4, 3.40, 0.0038, 0.046);
    return cells;
  }());
  return lib;
}

}  // namespace tka::net
