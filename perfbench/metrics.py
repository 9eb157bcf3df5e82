"""Reductions from e2e_bench's raw samples to the metrics in BENCHMARK.json.

Everything here is a pure function of the JSON object e2e_bench prints, so
the rules (percentiles, noise share, failure accounting, the unattributed
residual) are unit-tested in test_metrics.py without building anything.
"""

import math
import statistics

# Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND_TAIL = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples, q):
    """The nearest-rank q-quantile (0 < q < 1) of `samples`.

    Raises ValueError unless at least MIN_BEYOND_TAIL samples lie strictly
    beyond the reported rank, so a tail is never read off a handful of
    points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has {beyond} beyond "
            f"it; at least {MIN_BEYOND_TAIL} are needed")
    return ordered[rank - 1]


def noise_share(mode, baseline, reference, evaluated):
    """Fraction of the all-aggressor delay noise the returned k-set explains.

    Addition starts from the noiseless delay (baseline) and adds the set:
    (evaluated - baseline) / (reference - baseline). Elimination starts from
    the all-aggressor delay and removes the set:
    (baseline - evaluated) / (baseline - reference).
    """
    if mode == "addition":
        gained, total = evaluated - baseline, reference - baseline
    elif mode == "elimination":
        gained, total = baseline - evaluated, baseline - reference
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if total <= 0.0:
        raise ValueError("design has no delay noise to explain")
    return gained / total


def failed_share(attempted, failed):
    """Failed operations over attempted ones; a run that attempted nothing
    counts as wholly failed."""
    if attempted <= 0:
        return 1.0
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def unattributed(wall, stages):
    """Query wall time not covered by the named stages.

    The stages run one after another on the query's calling thread, so
    they can never exceed the wall; the residual is clamped at zero so
    clock skew between the bench span and the stage spans cannot make it
    negative. Named stages plus the residual equal the wall.
    """
    if wall < 0.0 or any(s < 0.0 for s in stages):
        raise ValueError("times must be non-negative")
    return max(0.0, wall - sum(stages))


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# ------------------------------------------------------------ end to end


def _mean_noise_share(raw):
    """Mean noise share over a run's answers: one per circuit (cold), one
    per (k, mode) pair at epoch 0 (served)."""
    return statistics.fmean(
        noise_share(n["mode"], n["baseline"], n["reference"], n["evaluated"])
        for n in raw["noise"])


def _cold_end_to_end(raw):
    walls, cpus = {}, {}
    for q in raw["queries"]:
        if q["traced"]:
            continue
        walls.setdefault(q["circuit"], []).append(q["wall_s"])
        cpus.setdefault(q["circuit"], []).append(q["cpu_s"])
    circuits = sorted(walls)
    all_walls = [w for c in circuits for w in walls[c]]
    return {
        "query_s": statistics.fmean(median(walls[c]) for c in circuits),
        "cpu_s_per_op": statistics.fmean(median(cpus[c]) for c in circuits),
        "served_rps": len(all_walls) / sum(all_walls),
        "noise_share": _mean_noise_share(raw),
    }


def _serve_end_to_end(raw):
    episodes = [e for e in raw["episodes"] if not e["traced"]]
    reads = [s for e in episodes for s in e["read_s"]]
    done = sum(len(e["read_s"]) + len(e["commit_s"]) for e in episodes)
    return {
        "query_s": median(reads),
        "cpu_s_per_op": sum(e["cpu_s"] for e in episodes) / done,
        "served_rps": done / sum(e["wall_s"] for e in episodes),
        "noise_share": _mean_noise_share(raw),
    }


def end_to_end(raw):
    """Every end-to-end metric, by name (values only)."""
    out = {"setup_s": median(raw["setup_s"]),
           "peak_rss_mib": raw["peak_rss_mib"]}
    out.update(_serve_end_to_end(raw) if "episodes" in raw
               else _cold_end_to_end(raw))
    return out


# ------------------------------------------------------------- per layer


def _interval_layers(x):
    """Per-layer readings of one traced interval (a cold query or a served
    episode), from the raw registry/lane/span deltas e2e_bench recorded."""
    sp = lambda name: x["span." + name]
    ct = lambda name: x["counter." + name]
    hist = lambda name: (x[f"hist.{name}.sum"], x[f"hist.{name}.count"])

    exec_s = x["lanes.exec_s"]
    wait_s = x["lanes.queue_idle_s"] + x["lanes.barrier_wait_s"]
    qw_sum, qw_n = hist("server.queue_wait_s")
    tk_sum, tk_n = hist("server.latency.topk_s")
    wi_sum, wi_n = hist("server.latency.whatif_s")
    # A cold query's wall is the bench span around it; a served episode's
    # is the shard's execution time over all its jobs.
    wall = sp("bench.query") or tk_sum + wi_sum
    baseline = sp("topk.stage.baseline")
    sweep = (sp("topk.stage.sweep_graph") + sp("topk.stage.candidate")
             + sp("topk.stage.prune"))
    evaluate = sp("topk.stage.evaluate")
    victim = sp("topk.victim")
    sets = ct("topk.sets_generated")
    sig, exact = ct("dominance.sig_rejects"), ct("dominance.exact_checks")
    hits, misses = (ct("noise.envelope_cache_hits"),
                    ct("noise.envelope_cache_misses"))
    requests = x.get("client.requests", 0.0)
    transport = (x.get("client.latency_sum_s", 0.0) - qw_sum - tk_sum - wi_sum)
    rc_hits = ct("server.result_cache_hits")
    rc_misses = ct("server.result_cache_misses")
    return {
        "runtime.exec_s": exec_s,
        "runtime.wait_s": wait_s,
        "runtime.stall_s": exec_s - x["lanes.exec_cpu_s"],
        "runtime.utilization": _ratio(exec_s, exec_s + wait_s),
        "runtime.steals": x["lanes.steals"],
        "runtime.tasks": x["lanes.tasks"],
        "topk.baseline_s": baseline,
        "topk.sweep_s": sweep,
        "topk.victim_cpu_s": victim,
        "topk.evaluate_s": evaluate,
        "topk.unattributed_s": unattributed(wall, [baseline, sweep, evaluate]),
        "topk.sets_generated": sets,
        "topk.surviving_sets": ct("topk.surviving_sets"),
        "topk.dominance_pruned": ct("topk.dominance_pruned"),
        "topk.beam_capped": ct("topk.beam_capped"),
        "dominance.exact_checks": exact,
        "dominance.sig_rejects": sig,
        "topk.survivor_share": _ratio(ct("topk.surviving_sets"), sets),
        "dominance.sig_reject_share": _ratio(sig, sig + exact),
        "topk.ns_per_set": _ratio(victim * 1e9, sets),
        "pwl.merge_points": ct("pwl.merge_points"),
        "wave.ns_per_merge_point": _ratio(x["cpu_s"] * 1e9,
                                          ct("pwl.merge_points")),
        "noise.fixpoint_query_s": sp("noise.fixpoint"),
        "noise.filter_s": sp("noise.filter"),
        "noise.filter_false_sides": ct("noise.filter_false_sides"),
        "noise.envelope_hit_share": _ratio(hits, hits + misses),
        "mem.envelope_cache_bytes": x["mem.envelope_cache_bytes"],
        "sta.runs": ct("sta.runs"),
        "topk.baseline_refresh_region": ct("topk.baseline_refresh_region"),
        "topk.whatif_runs": ct("topk.whatif_runs"),
        "server.snapshot_bytes_shared": x["gauge.server.snapshot_bytes_shared"],
        "server.queue_wait_ms": _ratio(qw_sum * 1e3, qw_n),
        "server.exec_topk_ms": _ratio(tk_sum * 1e3, tk_n),
        "server.exec_whatif_ms": _ratio(wi_sum * 1e3, wi_n),
        "server.transport_ms": _ratio(transport * 1e3, requests),
        "server.cache_hit_share": _ratio(rc_hits, rc_hits + rc_misses),
        "server.session_rebuilds": ct("server.session_rebuilds"),
        "server.session_rebases": ct("server.session_rebases"),
        "server.replayed_edits": ct("server.replayed_edits"),
        "server.coalesced_reads": ct("server.coalesced_reads"),
    }


def _overhead_share(raw):
    """Traced over untraced query time, minus one, pairing like with like:
    the same circuit (cold) or read latencies of alternating episodes."""
    if "episodes" in raw:
        traced = [s for e in raw["episodes"] if e["traced"] for s in e["read_s"]]
        plain = [s for e in raw["episodes"] if not e["traced"]
                 for s in e["read_s"]]
        return _ratio(median(traced), median(plain)) - 1.0 if plain else 0.0
    by = {}
    for q in raw["queries"]:
        by.setdefault((q["circuit"], q["traced"]), []).append(q["wall_s"])
    both = [c for (c, t) in by if t and (c, False) in by]
    if not both:
        return 0.0
    traced = sum(median(by[(c, True)]) for c in both)
    plain = sum(median(by[(c, False)]) for c in both)
    return traced / plain - 1.0


def per_layer(raw):
    """Every per-layer metric, by name (values only), for a traced run."""
    intervals = [q["layers"] for q in raw.get("queries", []) if q["traced"]]
    if "episodes" in raw:
        intervals = raw["traced_episodes"]
    if not intervals:
        raise ValueError("the traced run recorded no traced interval")
    rows = [_interval_layers(x) for x in intervals]
    out = {name: median([r[name] for r in rows]) for name in rows[0]}

    alone = raw["standalone"]
    fixpoint = median(alone["fixpoint_s"])
    iterations = alone["fixpoint_iterations"]
    out.update({
        "noise.fixpoint_s": fixpoint,
        "noise.fixpoint_iterations": iterations,
        "noise.ms_per_iteration": _ratio(fixpoint * 1e3, iterations),
        "sta.run_s": median(alone["sta_run_s"]),
        "snapshot.apply_ms": median(alone["snapshot_apply_ms"]),
        "session.whatif_ms": median(raw.get("whatif_ms", [])),
        "trace.overhead_share": _overhead_share(raw),
    })

    reads = commits = []
    if "episodes" in raw:
        plain = [e for e in raw["episodes"] if not e["traced"]]
        reads = [s for e in plain for s in e["read_s"]]
        commits = [s for e in plain for s in e["commit_s"]]
    out.update({
        "client.read_p50_ms": median(reads) * 1e3,
        "client.read_p90_ms": tail_percentile(reads, 0.9) * 1e3 if reads else 0.0,
        "client.commit_p50_ms": median(commits) * 1e3,
        "client.commit_p90_ms":
            tail_percentile(commits, 0.9) * 1e3 if commits else 0.0,
    })
    return out
