#include "session/design_snapshot.hpp"

#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace tka::session {
namespace {

/// Live-snapshot registry backing stats(). Guarded by a plain mutex;
/// snapshots are created/destroyed at commit and teardown rates, never on
/// per-request hot paths.
struct SnapshotRegistry {
  std::mutex mu;
  std::unordered_set<const DesignSnapshot*> live;
};

SnapshotRegistry& snapshot_registry() {
  static SnapshotRegistry* reg = new SnapshotRegistry();  // never destroyed
  return *reg;
}

/// Collects every COW storage chunk of a design as key -> deep bytes.
void collect_chunks(const net::Netlist& nl, const layout::Parasitics& par,
                    std::unordered_map<const void*, std::size_t>* out) {
  auto take = [out](const void* key, std::size_t bytes) {
    out->emplace(key, bytes);
  };
  nl.visit_storage(take);
  par.visit_storage(take);
}

}  // namespace

bool check_edit(const net::Netlist& nl, const layout::Parasitics& par,
                const WhatIfEdit& edit, std::string* message) {
  const std::size_t num_caps = par.num_couplings();
  auto caps_in_range = [&](const char* what,
                           const std::vector<layout::CapId>& ids) {
    for (layout::CapId id : ids) {
      if (id >= num_caps) {
        *message = str::format("%s: coupling id %u out of range (%zu caps)",
                               what, static_cast<unsigned>(id), num_caps);
        return false;
      }
    }
    return true;
  };
  if (!caps_in_range("zero", edit.zero_couplings) ||
      !caps_in_range("shield", edit.shield_couplings)) {
    return false;
  }
  const net::CellLibrary& lib = nl.library();
  for (const WhatIfEdit::Resize& r : edit.resizes) {
    if (r.gate >= nl.num_gates()) {
      *message = str::format("resize: gate id %u out of range (%zu gates)",
                             static_cast<unsigned>(r.gate), nl.num_gates());
      return false;
    }
    if (r.cell_index >= lib.size()) {
      *message = str::format("resize: cell index %zu out of range (%zu cells)",
                             r.cell_index, lib.size());
      return false;
    }
    const net::CellType& from = lib.cell(nl.gate(r.gate).cell_index);
    const net::CellType& to = lib.cell(r.cell_index);
    if (!net::is_drive_variant(from, to)) {
      *message = "resize: cell " + to.name + " is not a drive variant of " +
                 from.name;
      return false;
    }
  }
  return true;
}

void apply_edit_to_design(net::Netlist& nl, layout::Parasitics& par,
                          const WhatIfEdit& edit) {
  for (layout::CapId id : edit.zero_couplings) par.zero_coupling(id);
  for (layout::CapId id : edit.shield_couplings) par.shield_coupling(id);
  for (const WhatIfEdit::Resize& r : edit.resizes) {
    nl.resize_gate(r.gate, r.cell_index);
  }
}

DesignSnapshot::DesignSnapshot(std::uint64_t epoch, net::Netlist nl,
                               layout::Parasitics par,
                               const sta::DelayModelOptions& model_opt,
                               const DesignSnapshot* parent)
    : epoch_(epoch),
      nl_(std::make_unique<net::Netlist>(std::move(nl))),
      par_(std::make_unique<layout::Parasitics>(std::move(par))),
      model_opt_(model_opt) {
  // Bytes introduced over the parent: chunks of this design that the
  // parent does not reference. The base snapshot owns everything.
  std::unordered_map<const void*, std::size_t> mine;
  collect_chunks(*nl_, *par_, &mine);
  if (parent != nullptr) {
    std::unordered_map<const void*, std::size_t> theirs;
    collect_chunks(parent->netlist(), parent->parasitics(), &theirs);
    for (const auto& [key, bytes] : mine) {
      if (!theirs.contains(key)) unique_bytes_ += bytes;
    }
  } else {
    for (const auto& [key, bytes] : mine) unique_bytes_ += bytes;
  }
  tracked_bytes_.set(static_cast<std::int64_t>(unique_bytes_));

  {
    SnapshotRegistry& reg = snapshot_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.insert(this);
  }
  publish_gauges();
}

DesignSnapshot::~DesignSnapshot() {
  {
    SnapshotRegistry& reg = snapshot_registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.erase(this);
  }
  publish_gauges();
}

std::shared_ptr<const DesignSnapshot> DesignSnapshot::make_base(
    net::Netlist nl, layout::Parasitics par,
    const sta::DelayModelOptions& model_opt) {
  return std::shared_ptr<const DesignSnapshot>(new DesignSnapshot(
      0, std::move(nl), std::move(par), model_opt, nullptr));
}

std::shared_ptr<const DesignSnapshot> DesignSnapshot::apply(
    const WhatIfEdit& edit) const {
  net::Netlist nl(*nl_);         // COW copy: shares every chunk
  layout::Parasitics par(*par_);
  apply_edit_to_design(nl, par, edit);  // detaches only touched chunks
  return std::shared_ptr<const DesignSnapshot>(new DesignSnapshot(
      epoch_ + 1, std::move(nl), std::move(par), model_opt_, this));
}

DesignSnapshot::Stats DesignSnapshot::stats() {
  Stats out;
  std::unordered_map<const void*, std::size_t> distinct;
  SnapshotRegistry& reg = snapshot_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  out.live = reg.live.size();
  for (const DesignSnapshot* snap : reg.live) {
    std::size_t logical = 0;
    auto take = [&](const void* key, std::size_t bytes) {
      logical += bytes;
      distinct.emplace(key, bytes);
    };
    snap->netlist().visit_storage(take);
    snap->parasitics().visit_storage(take);
    out.logical_bytes += logical;
  }
  for (const auto& [key, bytes] : distinct) out.resident_bytes += bytes;
  return out;
}

void DesignSnapshot::publish_gauges() {
  const Stats s = stats();
  obs::MetricsRegistry& reg = obs::registry();
  reg.gauge("server.snapshots_live").set(static_cast<double>(s.live));
  reg.gauge("server.snapshot_bytes_logical")
      .set(static_cast<double>(s.logical_bytes));
  reg.gauge("server.snapshot_bytes_resident")
      .set(static_cast<double>(s.resident_bytes));
  reg.gauge("server.snapshot_bytes_shared")
      .set(static_cast<double>(s.shared_bytes()));
}

}  // namespace tka::session
