"""addcoal benchmark: four closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload mc-curves --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all [--out FILE]   # every workload, e2e and traced
    python3 perfbench/run.py --selfcheck                    # perturbed outputs must fail
    python3 perfbench/run.py --record-digests               # rewrite perfbench/digests.json

Load shape: one process, one client, each operation after the previous one
returns (workers=1, BLAS/OpenMP pinned to one thread).  A run repeats passes
of the workload on the same inputs for at least `--seconds` and at least
three passes, checks every pass's outputs, and prints human-readable lines,
a `report` line (provenance, checks, per-embedding throughput, the
per-layer split) and, last, one JSON result line.

`--trace 0` reports the end-to-end metrics: setup_s (median of fresh
processes doing imports and one tiny call of each kernel), wall_norm
(median pass time in units of the frozen computation in reference.py,
timed around every operation, so that the machine's drifting speed
cancels) and
peak_rss_mb.  Raw wall_s, merges_per_s and per-embedding throughput are
printed and kept in the report line.  `--trace 1` alternates untraced and
traced passes and reports the per-layer metrics of spans.py.
"""

import os

# pin native thread pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
MIN_PASSES = 3
SETUP_SAMPLES = 5
RECORDED_SEEDS = range(16)
sys.path.insert(0, str(ROOT / "src"))


def setup():
    """Imports and one tiny call of each kernel: everything before the first timed pass."""
    import scipy.special  # noqa: F401

    from addcoal import exact_oracles, experiment, smoluchowski
    from addcoal.process_core import Embedding

    import spans  # noqa: F401
    import workloads  # noqa: F401

    for emb in Embedding:
        experiment.run_monte_carlo(experiment.ExperimentSpec(
            n=8, embedding=emb, reps=2, seed=0, beta_grid=(0.0, 1.0)))
    experiment.regime_sweep((16,), 0.15, reps=1, seed=0, embedding=Embedding.PARKING)
    experiment.ks_two_sample([0.0, 1.0], [0.5, 2.0])
    experiment.chi_square_gof([5, 5], [0.5, 0.5])
    exact_oracles.parking_final_merge_marginal(3)
    exact_oracles.enumerate_parking(3)
    exact_oracles.enumerate_spanning_trees(3)
    exact_oracles.dp_sequence_distribution(3)
    exact_oracles.partition_dp(3)
    smoluchowski.phi_curve_quadrature("prey", (0.1,), tol=1e-4)


def measure_setup(samples):
    """Median wall time of fresh processes that run `setup()` and exit."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only"],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return median(times), times


def git_commit():
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, loadavg):
    import numpy
    import scipy

    from addcoal import _replay

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "addcoal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": "numba" if _replay.HAVE_NUMBA else "python",
        "nproc": os.cpu_count(),
        "workers": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(loadavg),
    }


def run_pass(workload, tracer=None, pass_index=0, time_ref=None):
    """One pass: (wall s, outputs, seconds per operation, reference seconds).

    With `time_ref`, the reference computation is timed after every
    operation, outside the operation timings; otherwise the last list is empty.
    """
    outputs, times, refs = [], [], []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = (pass_index, i)
        s = time.perf_counter()
        outputs.append(op.run())
        times.append(time.perf_counter() - s)
        if time_ref is not None:
            refs.append(time_ref())
    return sum(times), outputs, times, refs


def load_digests(name):
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(name, {})


@dataclasses.dataclass
class Passes:
    """Pass walls of one run, raw and in units of the reference computation."""

    walls: list = dataclasses.field(default_factory=list)  # untraced
    norm: list = dataclasses.field(default_factory=list)
    traced_walls: list = dataclasses.field(default_factory=list)
    traced_norm: list = dataclasses.field(default_factory=list)
    refs: list = dataclasses.field(default_factory=list)
    op_times: list = dataclasses.field(default_factory=list)  # untraced, per operation


def measure(workload, seconds, traced, checks, digests):
    """Repeat passes for `seconds`; traced runs alternate untraced and traced passes.

    The reference computation is timed before the first operation and after
    every operation; each operation is divided by the mean of the two
    reference times around it, so the host's speed at that moment cancels.
    """
    import spans
    from reference import Reference

    ref = Reference()
    for _ in range(2):
        ref.run()  # the first calls run cold

    def time_ref():
        t0 = time.perf_counter()
        ref.run()
        return time.perf_counter() - t0

    p = Passes(refs=[time_ref()])
    tracer = spans.Tracer() if traced else None
    first_digest = None
    start = time.perf_counter()
    i = 0
    wall = 0.0
    # stop before a pass that would likely end after `seconds`
    while len(p.walls) < MIN_PASSES or time.perf_counter() - start + wall <= seconds:
        on = traced and i % 2 == 1
        if on:
            tracer.install()
        try:
            wall, outputs, times, refs = run_pass(workload, tracer if on else None, i, time_ref)
        finally:
            if on:
                tracer.uninstall()
        around = p.refs[-1:] + refs
        norm = sum(t / ((r0 + r1) / 2) for t, r0, r1 in zip(times, around, around[1:]))
        p.refs += refs
        if on:
            p.traced_walls.append(wall)
            p.traced_norm.append(norm)
        else:
            p.walls.append(wall)
            p.norm.append(norm)
            p.op_times.append(times)
        workload.check(outputs, checks, digests)
        d = workload.digest(outputs)
        if first_digest is None:
            first_digest = d
        elif d:
            checks.expect(d == first_digest, f"pass {i} digest differs from pass 0")
        i += 1
    return p, tracer


def throughput_by_embedding(workload, op_times):
    """Merges per second of each embedding's operations (median over passes)."""
    out = {}
    for emb in ("direct", "parking", "tree"):
        idx = [j for j, op in enumerate(workload.ops) if op.embedding == emb]
        if idx:
            merges = sum(workload.ops[j].merges for j in idx)
            out[f"merges_per_s.{emb}"] = merges / median(sum(t[j] for j in idx) for t in op_times)
    return out


def run_workload(args):
    loadavg = os.getloadavg()
    setup()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    checks = workloads.Checks()
    p, tracer = measure(workload, args.seconds, args.trace, checks, load_digests(workload.name))
    merges = sum(op.merges for op in workload.ops)
    wall_s = median(p.walls)
    report = {
        "provenance": provenance(args, loadavg),
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failed_frac": checks.failed / checks.attempted,
                   "failures": checks.failures[:20]},
        "passes": len(p.walls) + len(p.traced_walls),
        "pass_walls_s": p.walls,
        "reference_s": p.refs,
        "op_s": {op.name: median(t[j] for t in p.op_times) for j, op in enumerate(workload.ops)},
        "merges_per_pass": merges,
        # raw wall time and throughput: what a user waits for, drifting with the machine's speed
        "wall_s": wall_s,
        "merges_per_s": merges / wall_s,
        "throughput": throughput_by_embedding(workload, p.op_times),
    }
    if args.trace:
        metrics, rows = spans.layer_metrics(tracer.spans, p.traced_walls,
                                            median(p.traced_norm) / median(p.norm) - 1.0)
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        report["traced_walls_s"] = p.traced_walls
        report["shares"] = spans.shares(rows, p.traced_walls)
        report["split"] = {name: {"calls": r[0] / len(p.traced_walls),
                                  "total_s": r[1] / len(p.traced_walls),
                                  "self_s": r[2] / len(p.traced_walls),
                                  "self_share": r[2] / sum(p.traced_walls)}
                           for name, r in sorted(rows.items(), key=lambda kv: -kv[1][2])}
    else:
        setup_s, setup_samples = measure_setup(SETUP_SAMPLES)
        report["setup_samples_s"] = setup_samples
        result = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_norm": {"value": median(p.norm), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    print_human(workload, report, result)
    print("report " + json.dumps(report))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}))


def print_human(workload, report, result):
    prov = report["provenance"]
    print(f"# {workload.name}: seed {prov['seed']}, {report['passes']} passes, "
          f"backend {prov['backend']}, python {prov['python']}, numpy {prov['numpy']}, "
          f"scipy {prov['scipy']}, nproc {prov['nproc']}, load {prov['loadavg_start'][0]:.2f}, "
          f"commit {prov['git_commit']}")
    for name, m in result.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"{'wall_s':36s} {report['wall_s']:14.6g} s")
    print(f"{'merges_per_s':36s} {report['merges_per_s']:14.6g} merges/s")
    for name, v in report["throughput"].items():
        print(f"{name:36s} {v:14.6g} merges/s")
    print(f"{'reference_s':36s} {median(report['reference_s']):14.6g} s")
    c = report["checks"]
    print(f"{'failed_frac':36s} {c['failed_frac']:14.6g} 1   ({c['failed']}/{c['attempted']} checks)")
    for what in c["failures"]:
        print(f"  FAILED: {what}")
    if "split" in report:
        print("# self-time shares of the traced wall: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in report["shares"].items()))
        print("# self-time split of the traced passes (per pass)")
        for name, r in report["split"].items():
            print(f"  {name:32s} calls {r['calls']:9.0f}  self {r['self_s']:9.4f} s  "
                  f"{100 * r['self_share']:6.2f}%")


def run_all(args):
    """Each workload untraced then traced, each in a fresh process."""
    import workloads

    record = {"workloads": {}}
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, check=True, timeout=600, capture_output=True, text=True).stdout
            lines = out.strip().splitlines()
            print("\n".join(lines[:-2]))
            report = json.loads(lines[-2][len("report "):])
            result = json.loads(lines[-1])
            record["provenance"] = report["provenance"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["correct"] = entry.get("correct", True) and result["correct"]
            if not trace:
                for k in ("wall_s", "merges_per_s"):
                    entry["end_to_end"][k] = report[k]
                entry["end_to_end"]["failed_frac"] = report["checks"]["failed_frac"]
                entry["end_to_end"].update(report["throughput"])
                entry["op_s"] = report["op_s"]
            else:
                entry["shares"] = report["shares"]
                entry["split"] = report["split"]
        record["workloads"][name] = entry
    record["provenance"].update(workload="all", trace=None)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(e["correct"] for e in record["workloads"].values()) else 1


def record_digests():
    """Digest of one pass of each Monte Carlo workload at the recorded seeds."""
    setup()
    import workloads

    table = {}
    for name, cls in workloads.WORKLOADS.items():
        if cls.digest is workloads.Workload.digest:
            continue  # no random inputs
        for seed in RECORDED_SEEDS:
            workload = cls(seed)
            _, outputs, _, _ = run_pass(workload)
            d = workload.digest(outputs)
            checks = workloads.Checks()
            workload.check(outputs, checks, {})
            if checks.failed:
                print(f"{name} seed {seed}: {checks.failures}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = d
            print(name, seed, d)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def selfcheck():
    """The output checks have power: perturbed outputs or references must fail."""
    setup()
    from addcoal import exact_oracles
    from addcoal.cost_engine import Functional

    import workloads

    def count(workload, outputs, digests):
        checks = workloads.Checks()
        workload.check(outputs, checks, digests)
        return checks

    results = []
    small = workloads.McSmall(0)
    _, outputs, _, _ = run_pass(small)
    digests = load_digests(small.name)
    results.append(("mc-small as computed", count(small, outputs, digests), False))
    want = digests["0"]
    flipped = {"0": want[:-1] + ("0" if want[-1] != "0" else "1")}
    results.append(("mc-small, one digest character changed", count(small, outputs, flipped), True))
    res = outputs[2]
    qf = res.alpha_values[Functional.QF].copy()
    qf[0, -1] = qf[0, 0] - 1.0  # the last alpha checkpoint of one replication drops
    bad = dataclasses.replace(res, alpha_values={**res.alpha_values, Functional.QF: qf})
    results.append(("mc-small, one checkpoint lowered",
                    count(small, outputs[:2] + [bad], {}), True))

    oracles = workloads.OraclesLimits(0)
    _, outputs, _, _ = run_pass(oracles)
    results.append(("oracles-limits as computed", count(oracles, outputs, {}), False))

    def pmk_off(m, k):
        p = exact_oracles.p_mk(m, k)
        return p + Fraction(1, m ** (m - 1)) if (m, k) == (7, 3) else p

    oracles.pmk = pmk_off
    results.append(("oracles-limits, p_mk(7, 3) shifted by 1/7^6", count(oracles, outputs, {}), True))
    ok = True
    for label, checks, should_fail in results:
        good = bool(checks.failed) == should_fail
        ok &= good
        print(f"{'ok ' if good else 'BAD'} {label}: {checks.failed}/{checks.attempted} checks failed"
              + "".join(f"\n      {w}" for w in checks.failures))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write the combined record here")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "addcoal" / "__init__.py").is_file():
        sys.exit(f"no addcoal source under {ROOT / 'src'}; run from a checkout of the repository")
    if args.setup_only:
        setup()
        return 0
    if args.selfcheck:
        return selfcheck()
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
