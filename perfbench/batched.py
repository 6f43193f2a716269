"""``batched``: parameter sweeps and noisy trajectories, the two
pipelines on the ``(B, 2**n)`` batched kernel hooks."""

from __future__ import annotations

from time import perf_counter

import numpy as np

import stats
import workloads as W
from procs import self_peak_rss_mb, time_setup_probe

TOLERANCE = 1e-10
SETUPS = 5
#: Sweep rows checked against a bound ``simulate()`` per round.
CHECK_ROWS = 2


def setup(seed):
    """Inputs, plus one tiny call of each pipeline so both plans are
    compiled and every code path is imported."""
    from repro.noise.trajectory import run_trajectories_batched

    ansatz, traj, noise = W.batched_inputs(seed)
    values, _ = W.batched_round(seed, 0, len(ansatz.parameters))
    ansatz.sweep(values[:1])
    run_trajectories_batched(traj, noise, shots=1, seed=0)
    return ansatz, traj, noise


class _Checker:
    """Sampled sweep rows equal ``bind(values).simulate()``; one seed
    gives one set of trajectory counts."""

    def __init__(self):
        self.wrong = 0
        self.problems = []

    def fail(self, what):
        self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(f"batched: {what}")

    def sweep(self, ansatz, values, states, k):
        import repro

        rows = np.random.default_rng(k).choice(
            len(values), CHECK_ROWS, replace=False
        )
        start = "0" * ansatz.nbQubits
        for r in rows:
            sim = repro.simulate(ansatz.bind(values[r]), start)
            if np.max(np.abs(sim.states[0] - states[r])) > TOLERANCE:
                self.fail(f"sweep round {k} row {r} differs")

    def counts(self, counts, k):
        if sum(counts.values()) != W.TRAJ_SHOTS:
            self.fail(f"trajectory round {k} counts do not sum to shots")


def _rounds(seed, inputs, seconds, check, call=None, after=None):
    """Rounds of one sweep then one trajectory batch until ``seconds``
    have passed; every third round starts from an empty plan cache.

    Returns ``(cold, warm, first_counts)``: cold and warm round records
    ``(sweep_seconds, trajectory_seconds)`` and round 0's counts.
    ``call`` wraps each pipeline call (tracing); ``after()`` runs after
    every round, outside the timing.
    """
    from repro.noise import trajectory
    from repro.simulation import clear_plan_cache

    ansatz, traj, noise = inputs
    nb_params = len(ansatz.parameters)
    cold, warm, first_counts = [], [], None
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline or not (cold and warm):
        values, traj_seed = W.batched_round(seed, k, nb_params)
        is_cold = k % 3 == 0
        if is_cold:
            clear_plan_cache()
        sweep_call = ansatz.sweep
        traj_call = trajectory.run_trajectories_batched
        if call is not None:
            sweep_call = call(sweep_call)
            traj_call = call(traj_call)
        t0 = perf_counter()
        res = sweep_call(values)
        t1 = perf_counter()
        out = traj_call(traj, noise, shots=W.TRAJ_SHOTS, seed=traj_seed)
        t2 = perf_counter()
        check.sweep(ansatz, values, res.states, k)
        counts = out.counts
        check.counts(counts, k)
        if k == 0:
            first_counts = counts
        (cold if is_cold else warm).append((t1 - t0, t2 - t1))
        if after is not None:
            after()
        k += 1
    return cold, warm, first_counts


def totals(rounds):
    """Round times: sweep plus trajectory seconds."""
    return [s + t for s, t in rounds]


def _replay_check(seed, inputs, first_counts, check):
    """Round 0's trajectory seed again must give round 0's counts."""
    from repro.noise.trajectory import run_trajectories_batched

    ansatz, traj, noise = inputs
    _values, traj_seed = W.batched_round(seed, 0, len(ansatz.parameters))
    again = run_trajectories_batched(
        traj, noise, shots=W.TRAJ_SHOTS, seed=traj_seed
    ).counts
    if again != first_counts:
        check.fail("same seed gave different trajectory counts")


def run(root, workdir, seed, seconds, trace):
    inputs = W.batched_inputs(seed)
    check = _Checker()
    if trace:
        metrics, calls = _run_traced(workdir, seed, inputs, seconds, check)
    else:
        setups = [time_setup_probe(root, "batched", seed)
                  for _ in range(SETUPS)]
        cold, warm, first = _rounds(seed, inputs, seconds, check)
        _replay_check(seed, inputs, first, check)
        round_s = stats.median(totals(warm))
        metrics = {
            "setup_s": stats.median(setups),
            "peak_rss_mb": self_peak_rss_mb(),
            "p50_ms": round_s * 1e3,
            # circuit evaluations: sweep points plus trajectory shots
            "ops_per_s": (W.SWEEP_POINTS + W.TRAJ_SHOTS) / round_s,
            # round 3j is cold, round 3j + 1 the warm round after it
            "cold_s": stats.first_call(
                list(zip(totals(cold), totals(warm)[::2])), totals(warm)
            ),
        }
        calls = 2 * (len(cold) + len(warm)) + 1
    notes = [f"batched: {calls} pipeline calls"] + check.problems
    return metrics, calls, check.wrong, notes


def _run_traced(workdir, seed, inputs, seconds, check):
    from repro.observability import flight_recorder
    from repro.observability.recorder import EV_PLAN_HIT, EV_PLAN_MISS
    from tracing import SpanLog, call_metrics

    half = seconds / 2.0
    rec = flight_recorder()
    tally = {"events": 0, EV_PLAN_HIT: 0, EV_PLAN_MISS: 0}
    mark = [rec.recorded]

    def after():
        # the ring holds 4096 events: read it back after every round
        for e in rec.events():
            if e.seq > mark[0] and e.kind in tally:
                tally[e.kind] += 1
        tally["events"] += rec.recorded - mark[0]
        mark[0] = rec.recorded

    cold, warm, first = _rounds(seed, inputs, half, check, after=after)
    nb_calls = 2 * (len(cold) + len(warm))
    lookups = tally[EV_PLAN_HIT] + tally[EV_PLAN_MISS]
    _replay_check(seed, inputs, first, check)

    log = SpanLog().install()
    try:
        def call(fn):
            return lambda *a, **kw: log.call("call", fn, *a, **kw)

        cold_t, warm_t, _first = _rounds(seed, inputs, half, check, call)
    finally:
        log.uninstall()
    log.dump(workdir / "batched-spans.json")
    traced_calls = 2 * (len(cold_t) + len(warm_t))

    metrics = call_metrics(log.spans)
    metrics.update(_pipeline_kernels(log.spans))
    sweep_s = [s for s, _t in warm]
    traj_s = [t for _s, t in warm]
    metrics["batch.sweep_points_per_s"] = W.SWEEP_POINTS / stats.median(
        sweep_s
    )
    metrics["batch.shots_per_s"] = W.TRAJ_SHOTS / stats.median(traj_s)
    metrics["obs.events_per_run"] = tally["events"] / nb_calls
    metrics["plan.hit_ratio"] = tally[EV_PLAN_HIT] / max(1, lookups)
    metrics["trace.overhead"] = (
        stats.median([s + t for s, t in warm_t])
        / stats.median([s + t for s, t in warm]) - 1.0
    )
    calls = nb_calls + 1 + traced_calls
    metrics["error_rate"] = stats.error_rate(calls, 0, check.wrong)
    return metrics, calls


def _pipeline_kernels(spans):
    """Kernel self time per sweep call and per trajectory call."""
    pipeline = {}  # root -> "sweep" | "trajectory"
    for _sid, _p, root, name, _s, _e in spans:
        if name in ("sweep", "trajectory"):
            pipeline[root] = name
    out = {}
    for kind, metric, kernels in (
        ("sweep", "sweep.step_ms", ("kernel.batched", "kernel.sweep")),
        ("trajectory", "trajectory.gate_ms", ("kernel.batched",)),
        ("trajectory", "trajectory.kraus_ms", ("kernel.apply_batched",)),
    ):
        totals = stats.per_name(
            s for s in spans if pipeline.get(s[2]) == kind
        )
        calls = sum(1 for v in pipeline.values() if v == kind)
        out[metric] = sum(
            totals.get(k, (0.0, 0))[0] for k in kernels
        ) * 1e3 / max(1, calls)
    return out
