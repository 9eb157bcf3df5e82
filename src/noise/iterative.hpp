// Iterative delay-noise / timing-window fixpoint (paper §1, refs [3],[4]).
//
// Delay noise widens timing windows downstream, which can create new
// aggressor-victim overlaps, which adds more delay noise: the classic
// chicken-and-egg. Iterate STA(with noise bumps) -> per-victim delay noise
// -> new bumps until the bumps stop changing. The optimistic start (no
// overlap assumed, bumps = 0) converges monotonically upward to the least
// fixpoint; the pessimistic start (infinite-window upper bounds) converges
// downward (refs [3],[4] prove convergence on the window lattice).
#pragma once

#include "noise/noise_analyzer.hpp"
#include "sta/analyzer.hpp"

namespace tka::noise {

/// Iteration cap of the fixpoint.
inline constexpr int kMaxIterations = 25;
/// Convergence tolerance: max |bump change| (ns). Both fixpoints raise it
/// to 1e-5 of the noiseless circuit delay when that is larger.
inline constexpr double kToleranceNs = 1e-4;

/// Controls for the fixpoint iteration.
struct IterativeOptions {
  bool pessimistic_start = false;  ///< start from upper-bound bumps
  /// Worker threads for the per-victim relaxation sweep. 0 = resolve from
  /// TKA_THREADS / hardware concurrency (runtime/runtime.hpp); 1 = serial.
  /// Every victim writes its own slot and the convergence reduction runs
  /// on the calling thread, so results are identical for any count.
  int threads = 0;
  sta::StaOptions sta;             ///< input arrivals etc.
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

/// Everything needed to *replay* one fixpoint run incrementally: the bump
/// vector and window table of every STA evaluation, in order. Entry t holds
/// bumps[t] and windows[t] == run_sta(bumps[t]).windows; the last entry is
/// the final (post-convergence) evaluation, duplicated in `final_sta` with
/// its gate tables. Recorded by analyze_iterative on request and consumed
/// by IncrementalFixpoint (noise/incremental_fixpoint.hpp).
struct FixpointTrajectory {
  sta::StaResult base;                        ///< the noiseless STA
  std::vector<std::vector<double>> bumps;     ///< per-iteration bump vectors
  std::vector<sta::WindowTable> windows;      ///< run_sta(bumps[t]).windows
  sta::StaResult final_sta;                   ///< the last evaluation, full
};

/// Runs the fixpoint with the given coupling mask.
NoiseReport analyze_iterative(const net::Netlist& nl, const layout::Parasitics& par,
                              const sta::DelayModel& model,
                              const CouplingCalculator& calc,
                              const CouplingMask& mask,
                              const IterativeOptions& options = {});

/// Same, additionally recording the run's trajectory into `*trajectory`
/// (previous contents are discarded). Recording only copies vectors the
/// run computes anyway, so the report — and every obs counter — is
/// identical to the non-recording overload.
NoiseReport analyze_iterative(const net::Netlist& nl, const layout::Parasitics& par,
                              const sta::DelayModel& model,
                              const CouplingCalculator& calc,
                              const CouplingMask& mask,
                              const IterativeOptions& options,
                              FixpointTrajectory* trajectory);

}  // namespace tka::noise
