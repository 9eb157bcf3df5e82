// Iterative delay-noise / timing-window fixpoint (paper §1, refs [3],[4]).
//
// Delay noise widens timing windows downstream, which can create new
// aggressor-victim overlaps, which adds more delay noise: the classic
// chicken-and-egg. Iterate STA(with noise bumps) -> per-victim delay noise
// -> new bumps until the bumps stop changing. The start assumes no overlap
// (bumps = 0) and converges monotonically upward to the least fixpoint
// (refs [3],[4] prove convergence on the window lattice).
//
// One loop computes every fixpoint. Run cold (analyze_iterative, and
// IncrementalFixpoint::recompute, which also records the run), every STA
// is a full run_sta() and every victim relaxes. IncrementalFixpoint::
// refresh() and evaluate() run the same loop against the recorded run
// after a small design or mask edit: each iteration adopts the recorded
// windows through sta::IncrementalSta, applies the edit cone plus the bumps
// that differ from the recorded ones, and re-runs the per-victim relaxation
// only where an input actually changed — the recorded result is reused
// everywhere else. A value is only ever reused when its inputs are bitwise
// identical to the recorded run's, so a replay is bit-identical to a cold
// run on the edited design or mask, at every thread count; once the replay
// outlasts the recorded iterations it takes cold steps, which keeps the
// identity unconditional.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "noise/noise_analyzer.hpp"
#include "sta/analyzer.hpp"

namespace tka::noise {

/// Iteration cap of the fixpoint.
inline constexpr int kMaxIterations = 25;
/// Convergence tolerance: max |bump change| (ns), raised to 1e-5 of the
/// noiseless circuit delay when that is larger.
inline constexpr double kToleranceNs = 1e-4;

/// Controls for the fixpoint iteration.
struct IterativeOptions {
  /// Worker threads for the per-victim relaxation sweep. 0 = resolve from
  /// TKA_THREADS / hardware concurrency (runtime/runtime.hpp); 1 = serial.
  /// Every victim writes its own slot and the convergence reduction runs
  /// on the calling thread, so results are identical for any count.
  int threads = 0;
  sta::StaOptions sta;  ///< input arrivals etc.
};

/// Result of a full noise-aware timing analysis.
struct NoiseReport {
  sta::WindowTable noiseless_windows;  ///< plain STA windows
  sta::WindowTable noisy_windows;      ///< windows at the fixpoint
  std::vector<double> delay_noise;     ///< per-net noise bump at fixpoint
  double noiseless_delay = 0.0;        ///< circuit delay without noise
  double noisy_delay = 0.0;            ///< circuit delay with noise
  net::NetId worst_po = net::kInvalidNet;
  int iterations = 0;
  bool converged = false;
};

/// Runs the fixpoint with the given coupling mask.
NoiseReport analyze_iterative(const net::Netlist& nl, const layout::Parasitics& par,
                              const sta::DelayModel& model,
                              const CouplingCalculator& calc,
                              const CouplingMask& mask,
                              const IterativeOptions& options = {});

/// The bump vector and window table of every STA evaluation of one run
/// (defined in iterative.cpp).
struct FixpointTrajectory;

/// Persistent fixpoint state for a (design, mask-polarity) pair: the last
/// run's report and its recorded trajectory. refresh() moves it to an
/// edited design; evaluate() replays it under a perturbed mask and leaves
/// it untouched, so one primed object answers any number of concurrent
/// evaluations.
class IncrementalFixpoint {
 public:
  IncrementalFixpoint(const net::Netlist& nl, const layout::Parasitics& par,
                      const sta::DelayModel& model,
                      const CouplingCalculator& calc,
                      const IterativeOptions& options);
  ~IncrementalFixpoint();
  IncrementalFixpoint(const IncrementalFixpoint&) = delete;
  IncrementalFixpoint& operator=(const IncrementalFixpoint&) = delete;

  /// Cold run: records the trajectory and primes the object. Counter-for-
  /// counter identical to a plain analyze_iterative() call.
  const NoiseReport& recompute(const CouplingMask& mask);

  /// Warm run after an edit. `dirty_nets` are nets whose local inputs
  /// changed (parasitics, driver cell, arrival); `dirty_caps` are couplings
  /// whose value or mask participation changed (their endpoints are added
  /// to the dirty set). `mask` is the mask to converge under — it may
  /// differ from the primed one only on `dirty_caps`. Requires primed().
  const NoiseReport& refresh(std::span<const net::NetId> dirty_nets,
                             std::span<const layout::CapId> dirty_caps,
                             const CouplingMask& mask);

  /// Circuit delay under `mask`, which may differ from the primed one only
  /// on `members`: the replay refresh({}, members, mask) would run, on
  /// `threads` relaxation workers, recording nothing and changing nothing.
  /// Bitwise analyze_iterative(mask).noisy_delay. Requires primed(); safe
  /// to call concurrently.
  double evaluate(std::span<const layout::CapId> members,
                  const CouplingMask& mask, int threads) const;

  bool primed() const { return traj_ != nullptr; }
  const NoiseReport& report() const { return report_; }

  /// Nets whose noiseless window changed in the last refresh() (exact
  /// diffs vs. the previous report), ascending id. Empty after recompute().
  const std::vector<net::NetId>& changed_noiseless() const {
    return changed_noiseless_;
  }
  /// Nets whose noisy window or delay-noise bump changed, ascending id.
  const std::vector<net::NetId>& changed_noisy() const { return changed_noisy_; }

 private:
  const net::Netlist* nl_;
  const layout::Parasitics* par_;
  const sta::DelayModel* model_;
  const CouplingCalculator* calc_;
  IterativeOptions opt_;

  NoiseReport report_;
  std::unique_ptr<const FixpointTrajectory> traj_;  ///< the last run's
  std::vector<net::NetId> changed_noiseless_;
  std::vector<net::NetId> changed_noisy_;
};

}  // namespace tka::noise
