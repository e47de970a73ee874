"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the addcoal modules with
wrappers that record one span per call: name, start, end, parent span,
operation id and a work count.  Each function is patched where its caller
looks it up (`from .x import f` binds `f` in the caller's module), so the
program itself is unchanged.  Spans stay in memory; `layer_metrics` folds
them into the per-layer numbers once the run is over.
"""

import functools
import time

from addcoal import _replay, acceptance, exact_oracles, experiment, smoluchowski
from addcoal.process_core import EventBatch


def _n_minus_1(args, result):
    return args[0] - 1


def _first_arg(args, result):
    return args[0]


def _result(args, result):
    return result


# (owner, attribute, span name, work count from (args, result) or None)
PATCHES = [
    (experiment, "run_monte_carlo", "experiment.aggregate", None),
    (experiment, "_one_rep", "experiment.rep", None),
    (experiment, "substream_rng", "seeding.substream", None),
    (acceptance, "substream_rng", "seeding.substream", None),
    (experiment, "simulate", "process_core.simulate", None),
    (acceptance, "simulate_direct", "process_core.simulate", None),
    (_replay, "direct_chain_replay", "replay.direct", _n_minus_1),
    (_replay, "parking_replay", "replay.parking", _n_minus_1),
    (_replay, "tree_replay", "replay.tree", _n_minus_1),
    (_replay, "tree_parents_from_prufer", "replay.prufer", _first_arg),
    (_replay, "parking_last_block_counts", "replay.last_block_counts", None),
    (experiment, "event_costs", "cost_engine.event_costs", None),
    (experiment, "regime_sweep", "experiment.sweep", None),
    (EventBatch, "largest_cluster_at", "process_core.snapshot", None),
    (experiment, "ks_two_sample", "experiment.stats", None),
    (acceptance, "chi_square_gof", "experiment.stats", None),
    (acceptance, "criterion_chain_chi_square", "acceptance.criterion", None),
    (acceptance, "criterion_pmk_chi_square", "acceptance.criterion", None),
    (acceptance, "dp_sequence_distribution", "exact_oracles.enumerate", None),
    (exact_oracles, "parking_final_merge_marginal", "exact_oracles.final_merge", None),
    (exact_oracles, "enumerate_parking", "exact_oracles.enumerate", None),
    (exact_oracles, "enumerate_spanning_trees", "exact_oracles.enumerate", None),
    (exact_oracles, "dp_sequence_distribution", "exact_oracles.enumerate", None),
    (exact_oracles, "partition_dp", "exact_oracles.partition_dp", None),
    (smoluchowski, "phi_curve_quadrature", "smoluchowski.quadrature", None),
    (smoluchowski, "_choose_kmax", "smoluchowski.choose_kmax", _result),
    (smoluchowski._Integrand, "__call__", "smoluchowski.integrand", None),
]

# layers whose self time is per-replication work outside the per-merge loop
PER_REP = ("seeding.substream", "process_core.simulate", "cost_engine.event_costs",
           "experiment.rep", "experiment.aggregate")
CHAIN_REPLAY = ("replay.direct", "replay.parking", "replay.tree", "replay.prufer")


class Tracer:
    """Records spans while installed; `op_id` tags spans with the current operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, work count]
        self._stack = []
        self._saved = []
        self.op_id = None

    def _wrap(self, name, func, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, count in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def split(spans):
    """{span name: [calls, total s, self s, work count]} and the root-span time."""
    child = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            roots += end - start
    out = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
        row[3] += work
    return out, roots


def layer_metrics(spans, traced_walls, overhead):
    """Per-layer metrics per pass from the spans of the traced passes.

    traced_walls are the walls of the traced passes; overhead is the traced
    over the untraced pass time, minus 1, measured by the caller.  A layer
    that did no work in the workload reports 0.
    """
    rows, roots = split(spans)
    passes = len(traced_walls)
    wall = sum(traced_walls)

    def get(name, field):
        return rows.get(name, (0, 0.0, 0.0, 0))[field] / passes

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    metrics = {}
    for emb in ("direct", "parking", "tree"):
        name = f"replay.{emb}"
        metrics[f"{name}.ns_per_merge"] = per(get(name, 1), get(name, 3), 1e9)
    metrics["replay.prufer.ns_per_vertex"] = per(get("replay.prufer", 1), get("replay.prufer", 3), 1e9)
    metrics["replay.merges"] = sum(get(f"replay.{e}", 3) for e in ("direct", "parking", "tree"))
    metrics["replay.direct.us_per_call"] = per(get("replay.direct", 1), get("replay.direct", 0), 1e6)
    for name in ("seeding.substream", "process_core.simulate", "cost_engine.event_costs",
                 "smoluchowski.integrand"):
        metrics[f"{name}.calls"] = get(name, 0)
    for name in ("seeding.substream", "cost_engine.event_costs", "process_core.snapshot",
                 "experiment.stats", "smoluchowski.integrand", "smoluchowski.choose_kmax",
                 "exact_oracles.final_merge", "replay.last_block_counts",
                 "exact_oracles.enumerate", "exact_oracles.partition_dp"):
        metrics[f"{name}.s"] = get(name, 1)
    for name in ("process_core.simulate", "experiment.rep", "experiment.aggregate",
                 "acceptance.criterion", "experiment.sweep"):
        metrics[f"{name}.self_s"] = get(name, 2)
    metrics["smoluchowski.kmax"] = max(
        (s[5] for s in spans if s[0] == "smoluchowski.choose_kmax"), default=0)
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.unattributed_frac"] = 1.0 - roots / wall
    return metrics, rows


def shares(rows, traced_walls):
    """Self-time shares of the traced wall: chain replay, per-replication layers, oracles."""
    wall = sum(traced_walls)

    def share(names):
        return sum(rows[n][2] for n in names if n in rows) / wall

    oracles = [n for n in rows if n.startswith(("exact_oracles.", "smoluchowski."))]
    return {
        "replay": share(CHAIN_REPLAY),
        "per_rep": share(PER_REP),
        "oracles": share(oracles + ["replay.last_block_counts"]),
    }
