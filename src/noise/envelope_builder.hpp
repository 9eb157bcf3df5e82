// Builds victim-referenced noise envelopes from characterized pulses and
// aggressor timing windows, with a per-coupling-side envelope table.
//
// The envelope of coupling `cap` on `victim` is the trapezoid obtained by
// sweeping the aggressor transition over its window [EAT, LAT]; the pulse
// leaves zero when the aggressor transition *starts*, i.e. at
// t50_agg - trans/2 (paper Figure 2).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "noise/coupling_calc.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "sta/timing_graph.hpp"
#include "wave/envelope.hpp"

namespace tka::noise {

/// Envelope factory bound to a window table. Windows are captured by
/// reference: the iterative engine re-creates builders per iteration.
class EnvelopeBuilder {
 public:
  EnvelopeBuilder(const net::Netlist& nl, const layout::Parasitics& par,
                  const CouplingCalculator& calc, const sta::WindowTable& windows)
      : nl_(&nl),
        par_(&par),
        calc_(&calc),
        windows_(&windows),
        cache_hits_(obs::registry().counter("noise.envelope_cache_hits")),
        cache_misses_(obs::registry().counter("noise.envelope_cache_misses")) {}

  /// Trapezoidal envelope of `cap` on `victim` under the current windows,
  /// served from a dense table with one slot per coupling side. The first
  /// caller of a side builds it; every later caller gets the same object
  /// without taking a lock (one arriving mid-build waits for it). The
  /// table is allocated on the first call, so builders that only use the
  /// uncached methods below carry none. Thread-safe against concurrent
  /// envelope() calls; the reference stays valid until the side is
  /// invalidated or the builder destroyed.
  const wave::Pwl& envelope(net::NetId victim, layout::CapId cap);

  /// Uncached envelope with an explicitly widened aggressor window: equal
  /// to envelope() at `lat_extension` 0. A negative `lat_extension`
  /// narrows the window (clamped at the EAT); elimination-mode higher-order
  /// atoms use this to model window narrowing when an aggressor's own
  /// noise is removed.
  wave::Pwl envelope_widened(net::NetId victim, layout::CapId cap,
                             double lat_extension) const;

  /// "Infinite-window" plateau envelope spanning [t_lo, t_hi]: the pulse
  /// peak held across the whole interval. Used for the delay-noise upper
  /// bound that closes the dominance interval (paper §3.2).
  wave::Pwl plateau_envelope(net::NetId victim, layout::CapId cap,
                             double t_lo, double t_hi) const;

  /// The characterized pulse shape for (victim, cap).
  wave::PulseShape pulse_shape(net::NetId victim, layout::CapId cap) const;

  /// Drops every table entry touching `net` — as the victim side or as
  /// the aggressor of one of its couplings. Sessions call this after an
  /// edit (or a window change at `net`) so only the affected entries
  /// rebuild; everything else keeps hitting the table. Between queries
  /// only: must not run concurrently with envelope().
  void invalidate_net(net::NetId net);

  /// Drops both victim sides of one coupling. Between queries only.
  void invalidate_cap(layout::CapId cap);

  const sta::WindowTable& windows() const { return *windows_; }

 private:
  // A slot moves kEmpty -> kBuilding (the caller that wins the exchange
  // builds) -> kReady (published with release; readers acquire). Only
  // invalidation between queries, or a build that throws, returns it to
  // kEmpty.
  enum : std::uint32_t { kEmpty = 0, kBuilding = 1, kReady = 2 };
  struct Slot {
    std::atomic<std::uint32_t> state{kEmpty};
    wave::Pwl env;
  };

  wave::Pwl build(net::NetId victim, layout::CapId cap, double lat_extension) const;
  /// Table index of a side: 2 * cap + (victim == net_b).
  std::size_t side_index(net::NetId victim, layout::CapId cap) const;
  /// Returns both sides of `cap` to kEmpty where built, keeping the byte
  /// accounting in step. Returns the number of sides dropped.
  std::size_t drop_sides(layout::CapId cap);

  const net::Netlist* nl_;
  const layout::Parasitics* par_;
  const CouplingCalculator* calc_;
  const sta::WindowTable* windows_;
  std::once_flag table_once_;
  std::unique_ptr<Slot[]> table_;  // 2 * num_couplings slots, lazily
  std::size_t table_size_ = 0;
  // Hit/miss tallies (relaxed atomics; no-ops with TKA_OBS_DISABLED). A
  // side is built at most once between invalidations, so misses count the
  // builds and hits + misses count envelope() calls, at any thread count.
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  // Table footprint (slots plus built points), published to the
  // mem.envelope_cache_bytes gauge. The builder's contribution releases on
  // destruction, so the gauge returns to zero when every builder is gone.
  obs::TrackedBytes cache_bytes_{"mem.envelope_cache_bytes"};
};

}  // namespace tka::noise
