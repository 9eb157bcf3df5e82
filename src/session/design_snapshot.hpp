// DesignSnapshot: an epoch-stamped, refcounted, immutable view of one
// design state — netlist + parasitics plus the delay-model options.
//
// The serving layer publishes one snapshot per committed epoch. A job pins
// the head snapshot (a shared_ptr copy) while it runs; sessions take COW
// copies of its netlist and parasitics, which hold the chunks themselves.
// A what_if commit produces the next snapshot by copy-on-write — the
// Netlist/Parasitics copies share every storage chunk the edit did not
// touch (util::CowVec), so the chain costs O(design + edits), not
// O(snapshots × design).
//
// Every live snapshot registers in a process-wide table so the serving
// gauges (server.snapshots_live, server.snapshot_bytes_*) can report how
// much storage is logically referenced vs actually resident; the
// difference is the bytes COW sharing saved. Each snapshot also tracks the
// bytes it introduced over its parent via TrackedBytes
// ("mem.snapshot_bytes"), which returns to zero when the chain is torn
// down — the balance invariant the lifecycle tests assert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "layout/parasitics.hpp"
#include "net/netlist.hpp"
#include "obs/memory.hpp"
#include "session/what_if.hpp"
#include "sta/delay_model.hpp"

namespace tka::session {

/// Checks one repair edit against a design without changing it: every
/// coupling and gate id in range, and every resize to a drive variant of
/// the gate's cell. On failure returns false and says why in *message; on
/// success apply_edit_to_design cannot fail.
bool check_edit(const net::Netlist& nl, const layout::Parasitics& par,
                const WhatIfEdit& edit, std::string* message);

/// Applies one checked repair edit to a design. AnalysisSession::what_if
/// applies its edits through this too, so a snapshot chain replays to
/// exactly the design state the writer holds.
void apply_edit_to_design(net::Netlist& nl, layout::Parasitics& par,
                          const WhatIfEdit& edit);

class DesignSnapshot {
 public:
  /// The epoch-0 snapshot of a freshly loaded design. The cell library
  /// referenced by `nl` must outlive the snapshot chain.
  static std::shared_ptr<const DesignSnapshot> make_base(
      net::Netlist nl, layout::Parasitics par,
      const sta::DelayModelOptions& model_opt);

  /// The epoch+1 successor: applies `edit` to COW copies of this
  /// snapshot's design, cloning only the storage chunks the edit touches.
  std::shared_ptr<const DesignSnapshot> apply(const WhatIfEdit& edit) const;

  ~DesignSnapshot();
  DesignSnapshot(const DesignSnapshot&) = delete;
  DesignSnapshot& operator=(const DesignSnapshot&) = delete;

  std::uint64_t epoch() const { return epoch_; }
  const net::Netlist& netlist() const { return *nl_; }
  const layout::Parasitics& parasitics() const { return *par_; }
  const sta::DelayModelOptions& model_options() const { return model_opt_; }

  /// Approximate bytes of COW storage this snapshot introduced over its
  /// parent (the whole design for the base snapshot).
  std::size_t unique_bytes() const { return unique_bytes_; }

  struct Stats {
    std::size_t live = 0;            ///< snapshots currently alive
    std::size_t logical_bytes = 0;   ///< sum of per-snapshot deep bytes
    std::size_t resident_bytes = 0;  ///< distinct chunk bytes actually held
    std::size_t shared_bytes() const {
      return logical_bytes > resident_bytes ? logical_bytes - resident_bytes
                                            : 0;
    }
  };
  /// Process-wide stats over every live snapshot (all shards). Walks each
  /// snapshot's chunk table under a registry lock — cheap at serving
  /// commit rates, not meant for per-request paths.
  static Stats stats();

  /// Publishes stats() to the server.snapshots_live /
  /// server.snapshot_bytes_{logical,resident,shared} gauges.
  static void publish_gauges();

 private:
  DesignSnapshot(std::uint64_t epoch, net::Netlist nl, layout::Parasitics par,
                 const sta::DelayModelOptions& model_opt,
                 const DesignSnapshot* parent);

  const std::uint64_t epoch_;
  std::unique_ptr<net::Netlist> nl_;
  std::unique_ptr<layout::Parasitics> par_;
  const sta::DelayModelOptions model_opt_;
  std::size_t unique_bytes_ = 0;
  obs::TrackedBytes tracked_bytes_{"mem.snapshot_bytes"};
};

}  // namespace tka::session
