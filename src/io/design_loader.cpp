#include "io/design_loader.hpp"

#include <vector>

#include "io/bench_reader.hpp"
#include "io/spef_lite.hpp"
#include "io/verilog_lite.hpp"
#include "layout/extractor.hpp"
#include "layout/placer.hpp"
#include "layout/router.hpp"

namespace tka::io {

std::unique_ptr<net::Netlist> read_netlist_file(const std::string& path) {
  if (path.ends_with(".v")) return read_verilog_file(path);
  return read_bench_file(path);
}

LoadedDesign load_design(const std::string& netlist_path,
                         const std::string& spef_path) {
  std::unique_ptr<net::Netlist> nl = read_netlist_file(netlist_path);
  layout::Parasitics par = [&] {
    if (!spef_path.empty()) return read_spef_lite_file(spef_path, *nl);
    const layout::Placement placement = layout::grid_place(*nl, {});
    const std::vector<layout::Route> routes = layout::route_all(*nl, placement);
    return layout::extract(*nl, routes, {});
  }();
  return {std::move(nl), std::move(par)};
}

}  // namespace tka::io
