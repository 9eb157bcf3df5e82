// Design loading shared by the CLI and the server: the netlist reader is
// chosen by file suffix, and the parasitics come from a SPEF-lite file when
// one is given, otherwise from a default grid placement, routing and
// extraction.
#pragma once

#include <memory>
#include <string>

#include "layout/parasitics.hpp"
#include "net/netlist.hpp"

namespace tka::io {

/// Reads a Verilog-lite netlist from a `.v` path and an ISCAS .bench
/// netlist from any other. Throws tka::Error on I/O or parse failure.
std::unique_ptr<net::Netlist> read_netlist_file(const std::string& path);

struct LoadedDesign {
  std::unique_ptr<net::Netlist> netlist;
  layout::Parasitics parasitics;
};

/// The netlist at `netlist_path` with the parasitics read from `spef_path`,
/// or extracted from the default placement and routing when `spef_path` is
/// empty. Throws tka::Error on I/O or parse failure.
LoadedDesign load_design(const std::string& netlist_path,
                         const std::string& spef_path);

}  // namespace tka::io
