// Micro kernels for the computational primitives: PWL algebra, envelope
// construction, delay-noise superposition, dominance checks, LU solve and
// the coupled-RC characterization.
//
// Each case runs a fixed iteration count per timed rep (so medians are
// comparable across runs and tiers) and folds every result into a
// checksum reported as a value — which both defeats dead-code elimination
// and gives bench_compare a deterministic output to diff.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "circuit/coupled_rc.hpp"
#include "common.hpp"
#include "noise/noise_analyzer.hpp"
#include "topk/dominance.hpp"
#include "topk/sig_table.hpp"
#include "util/rng.hpp"
#include "wave/envelope.hpp"
#include "wave/pulse.hpp"
#include "wave/ramp.hpp"

namespace {

using namespace tka;

wave::Pwl random_envelope(Rng& rng) {
  wave::PulseShape s{rng.next_double(0.05, 0.4), rng.next_double(0.02, 0.2),
                     rng.next_double(0.05, 0.5)};
  const double eat = rng.next_double(0.0, 2.0);
  return wave::make_trapezoidal_envelope(s, eat, eat + rng.next_double(0.0, 1.5));
}

// FNV-1a over the raw bits of every breakpoint of `w`, folded into `h`. The
// multiply carries a changed input bit into every higher bit, so the top
// bits of the result move whenever any output bit does.
std::uint64_t fold_points(std::uint64_t h, const wave::Pwl& w) {
  for (const wave::Point& p : w.points()) {
    for (const double x : {p.t, p.v}) {
      h ^= std::bit_cast<std::uint64_t>(x);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "micro_kernels");
  std::printf("Micro kernels (fixed iteration counts per rep)\n");

  h.run_case("pwl_plus", [](bench::Reporter& r) {
    Rng rng(1);
    const wave::Pwl a = random_envelope(rng);
    const wave::Pwl b = random_envelope(rng);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += a.plus(b).peak();
    r.value("checksum", sum);
  });

  h.run_case("pwl_minus", [](bench::Reporter& r) {
    Rng rng(21);
    const wave::Pwl a = random_envelope(rng);
    const wave::Pwl b = random_envelope(rng);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += a.minus(b).peak();
    r.value("checksum", sum);
  });

  // Fold 32 envelopes one plus() at a time: the left operand grows, so the
  // merge sweep runs at the sizes the engine actually sees when building
  // candidate envelopes incrementally.
  h.run_case("pwl_plus_chain/32", [](bench::Reporter& r) {
    Rng rng(22);
    std::vector<wave::Pwl> envs;
    for (int i = 0; i < 32; ++i) envs.push_back(random_envelope(rng));
    double sum = 0.0;
    for (int i = 0; i < 500; ++i) {
      wave::Pwl acc = envs[0];
      for (int j = 1; j < 32; ++j) acc = acc.plus(envs[j]);
      sum += acc.peak();
    }
    r.value("checksum", sum);
  });

  h.run_case("pwl_clamp", [](bench::Reporter& r) {
    Rng rng(23);
    const wave::Pwl a = random_envelope(rng);
    const wave::Pwl b = random_envelope(rng);
    const wave::Pwl big = a.plus(b);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += big.clamped(0.05, 0.3).peak();
    r.value("checksum", sum);
  });

  // 148 terms is the scale of the largest sums the noise fixpoint makes on
  // the i9-size design, every iteration (a tenth of the iterations there
  // keeps the smoke tier short). The checksum folds every output breakpoint
  // bit for bit (top 29 bits, so the %.9g JSON value is exact), so the
  // value gate pins the kernel's exact output.
  for (const int n : {4, 16, 64, 148}) {
    h.run_case(str::format("pwl_sum_many/%d", n), [n](bench::Reporter& r) {
      Rng rng(2);
      std::vector<wave::Pwl> envs;
      std::vector<const wave::Pwl*> terms;
      for (int i = 0; i < n; ++i) envs.push_back(random_envelope(rng));
      for (const wave::Pwl& e : envs) terms.push_back(&e);
      const int iters = n > 64 ? 200 : 2000;
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (int i = 0; i < iters; ++i) hash = fold_points(hash, wave::Pwl::sum(terms));
      r.value("checksum", static_cast<double>(hash >> 35));
    });
  }

  h.run_case("pwl_upper_envelope", [](bench::Reporter& r) {
    Rng rng(3);
    const wave::Pwl a = random_envelope(rng);
    const wave::Pwl b = random_envelope(rng);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += a.upper_envelope(b).peak();
    r.value("checksum", sum);
  });

  h.run_case("pwl_simplify", [](bench::Reporter& r) {
    Rng rng(4);
    std::vector<wave::Pwl> envs;
    std::vector<const wave::Pwl*> terms;
    for (int i = 0; i < 32; ++i) envs.push_back(random_envelope(rng));
    for (const wave::Pwl& e : envs) terms.push_back(&e);
    const wave::Pwl big = wave::Pwl::sum(terms);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
      sum += static_cast<double>(big.simplified(1e-3).size());
    }
    r.value("checksum", sum);
  });

  h.run_case("trapezoidal_envelope", [](bench::Reporter& r) {
    const wave::PulseShape s{0.3, 0.05, 0.2};
    double sum = 0.0;
    for (int i = 0; i < 50000; ++i) {
      sum += wave::make_trapezoidal_envelope(s, 1.0, 2.5).peak();
    }
    r.value("checksum", sum);
  });

  h.run_case("delay_noise", [](bench::Reporter& r) {
    Rng rng(5);
    const wave::Pwl vic = wave::make_rising_ramp(2.0, 0.1, 1.2);
    const wave::Pwl env = random_envelope(rng);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) sum += noise::delay_noise(vic, env, 1.2, 2.0);
    r.value("checksum", sum);
  });

  h.run_case("dominance_check", [](bench::Reporter& r) {
    Rng rng(6);
    const wave::Pwl a = random_envelope(rng);
    const wave::Pwl b = random_envelope(rng);
    const wave::DominanceInterval iv{0.0, 6.0};
    int hits = 0;
    for (int i = 0; i < 20000; ++i) hits += wave::dominates(a, b, iv) ? 1 : 0;
    r.value("checksum", static_cast<double>(hits));
  });

  // Linear encapsulation co-walk on many-breakpoint envelopes (the sizes
  // dominance checks see after candidate envelopes have been summed up).
  h.run_case("pwl_encapsulates", [](bench::Reporter& r) {
    Rng rng(24);
    std::vector<wave::Pwl> envs;
    std::vector<const wave::Pwl*> terms;
    for (int i = 0; i < 16; ++i) envs.push_back(random_envelope(rng));
    for (const wave::Pwl& e : envs) terms.push_back(&e);
    const wave::Pwl big_a = wave::Pwl::sum(terms);
    const wave::Pwl big_b = big_a.scaled(0.98).shifted(0.01);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
      hits += big_a.encapsulates(big_b, 0.0, 6.0, 1e-6) ? 1 : 0;
    }
    r.value("checksum", static_cast<double>(hits));
  });

  for (const int n : {16, 64, 256}) {
    h.run_case(str::format("prune_dominated/%d", n), [n](bench::Reporter& r) {
      Rng rng(7);
      const wave::DominanceInterval iv{0.0, 6.0};
      std::vector<topk::CandidateSet> base;
      for (int i = 0; i < n; ++i) {
        topk::CandidateSet s;
        s.members = {static_cast<layout::CapId>(i)};
        s.envelope = random_envelope(rng);
        s.score = rng.next_double();
        base.push_back(std::move(s));
      }
      const int iters = 4096 / n;
      double survivors = 0.0;
      for (int i = 0; i < iters; ++i) {
        std::vector<topk::CandidateSet> work = base;
        topk::prune_dominated(work, iv, 1e-9, nullptr);
        survivors += static_cast<double>(work.size());
      }
      r.value("checksum", survivors);
    });
  }

  // Same workload with signatures attached up front, the way CandidateStage
  // delivers sets to the prune: measures the pre-filtered path the engine
  // takes (prune_dominated/* above pays the in-call signature backfill).
  h.run_case("prune_dominated_presig/256", [](bench::Reporter& r) {
    Rng rng(7);
    const wave::DominanceInterval iv{0.0, 6.0};
    std::vector<topk::CandidateSet> base;
    for (int i = 0; i < 256; ++i) {
      topk::CandidateSet s;
      s.members = {static_cast<layout::CapId>(i)};
      s.envelope = random_envelope(rng);
      s.score = rng.next_double();
      s.sig = wave::make_signature(s.envelope, iv);
      base.push_back(std::move(s));
    }
    double survivors = 0.0;
    for (int i = 0; i < 16; ++i) {
      std::vector<topk::CandidateSet> work = base;
      topk::prune_dominated(work, iv, 1e-9, nullptr);
      survivors += static_cast<double>(work.size());
    }
    r.value("checksum", survivors);
  });

  // Packed-column signature sweep at engine scale: one prepared candidate
  // against a 4096-entry SoA table per iteration. Isolates the SigTable
  // compare kernel (no sort, no envelope co-walk) the prune's hot loop
  // runs per candidate.
  h.run_case("prune_dominated_soa/4096", [](bench::Reporter& r) {
    Rng rng(9);
    const wave::DominanceInterval iv{0.0, 6.0};
    topk::SigTable table;
    table.reserve(4096);
    std::vector<wave::EnvelopeSignature> cands;
    for (int i = 0; i < 4096; ++i) {
      table.push_back(wave::make_signature(random_envelope(rng), iv));
    }
    for (int i = 0; i < 64; ++i) {
      cands.push_back(wave::make_signature(random_envelope(rng), iv));
    }
    std::vector<std::uint8_t> flags(table.size());
    double rejects = 0.0;
    for (int i = 0; i < 200; ++i) {
      const wave::EnvelopeSignature& cand = cands[i % cands.size()];
      table.rejects_batch(cand, 1e-9, flags.data());
      for (std::uint8_t f : flags) rejects += f;
    }
    r.value("checksum", rejects);
  });

  // Allocation churn across the small-buffer spill boundary: build and
  // drop waveforms of 4..64 points, the construct/destroy pattern the
  // candidate stage runs per generated set. Times the storage layer —
  // inline buffer, heap spill and release — rather than the merge
  // arithmetic.
  h.run_case("pwl_alloc_churn", [](bench::Reporter& r) {
    Rng rng(10);
    std::vector<wave::Point> pts;
    double sum = 0.0;
    for (int i = 0; i < 50000; ++i) {
      const int n = 4 + static_cast<int>(rng.next_double(0.0, 60.0));
      pts.clear();
      double t = 0.0;
      for (int j = 0; j < n; ++j) {
        t += 0.01 + rng.next_double(0.0, 0.1);
        pts.push_back({t, rng.next_double()});
      }
      const wave::Pwl w(pts);
      sum += w.peak() + static_cast<double>(w.size());
    }
    r.value("checksum", sum);
  });

  for (const size_t n : {6u, 12u, 24u}) {
    h.run_case(str::format("lu_solve/%zu", n), [n](bench::Reporter& r) {
      Rng rng(8);
      circuit::Matrix m(n, n);
      for (size_t row = 0; row < n; ++row) {
        for (size_t c = 0; c < n; ++c) m.at(row, c) = rng.next_double(-1.0, 1.0);
        m.at(row, row) += 5.0;
      }
      const std::vector<double> b(n, 1.0);
      const int iters = static_cast<int>(12000 / n);
      double sum = 0.0;
      for (int i = 0; i < iters; ++i) {
        circuit::LuSolver lu(m);
        sum += lu.solve(b)[0];
      }
      r.value("checksum", sum);
    });
  }

  h.run_case("coupled_rc_characterization", [](bench::Reporter& r) {
    circuit::CoupledRcParams p;
    double sum = 0.0;
    for (int i = 0; i < 200; ++i) {
      sum += circuit::characterize_noise_pulse(p).peak;
    }
    r.value("checksum", sum);
  });

  return h.finish();
}
