"""Command-line surface: simulate | limit | exact | verify | sweep.

Config files are flat UTF-8 ``key = value`` text with keys matching the
flag names; unknown keys are rejected and explicitly given flags override
file values.  Every output row leads with provenance (seed, n, reps,
embedding, version, backend).  Exit codes: 0 success, 1 usage error
(invalid flags, config or argument values), 2 verification failure,
3 runtime failure (an error inside a computation or while writing output;
the error report names the command and the seed).
"""

import argparse
import contextlib
import csv
import io
import json
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from . import __version__, _replay, acceptance
from .cost_engine import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    Functional,
)
from .exact_oracles import DP_MAX, PMK_EXACT_MAX, p_mk, partition_dp
from .experiment import ExperimentSpec, regime_sweep, run_monte_carlo
from .process_core import Embedding
from .smoluchowski import (
    check_alpha_grid,
    phi_closed_form,
    phi_comparison_curve,
    phi_curve_quadrature,
    phi_classical_table,
)

_SEED_LIMIT = 1 << 64  # seeds are 64-bit; larger or negative ones would alias


class UsageError(ValueError):
    pass


@contextlib.contextmanager
def _validating():
    """Report a ValueError raised while checking arguments as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_ALL_FUNCTIONALS = tuple(f.value for f in Functional)

COMMANDS = ("simulate", "limit", "exact", "verify", "sweep")
EXACT_TABLES = ("pmk", "condr", "dp")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation's settings; round-trips through config text.

    Each field other than `command` is set by the flag ``--<key>`` (or, for
    `table`, the positional of that name) and by the config line
    ``<key> = value``.  The key is the field name with dashes for
    underscores unless the field's metadata names another.  The annotation
    gives the value syntax: ``tuple[X, ...]`` is a comma-separated list of
    X (a list of strings is given as a repeated flag on the command line).
    """

    command: str
    n: tuple[int, ...] = (1000,)
    embedding: str = "direct"
    functionals: tuple[str, ...] = field(default=_ALL_FUNCTIONALS,
                                         metadata={"key": "functional"})
    reps: int = 1
    seed: int = 0
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    tol: float = 1e-8
    fmt: str = field(default="csv", metadata={"key": "format"})
    out: str = ""
    raw_out: str = ""
    workers: int = 1
    eps: float = 0.15
    table: str = ""
    only: tuple[str, ...] = ()
    mutate: tuple[str, ...] = ()

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if self.fmt not in ("csv", "json"):
            raise UsageError("format must be csv or json")
        if self.embedding not in tuple(e.value for e in Embedding):
            raise UsageError(f"unknown embedding {self.embedding!r}")
        for f in self.functionals:
            if f not in _ALL_FUNCTIONALS:
                raise UsageError(f"unknown functional {f!r}; known: {_ALL_FUNCTIONALS}")
        if self.table and self.table not in EXACT_TABLES:
            raise UsageError(f"unknown exact table {self.table!r}; known: {EXACT_TABLES}")
        if self.reps < 1 or self.workers < 1:
            raise UsageError("reps and workers must be >= 1")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise UsageError(f"seed must be in [0, 2^64), got {self.seed}")
        for name, values in (("n", self.n), ("functional", self.functionals),
                             ("alpha-grid", self.alpha_grid), ("beta-grid", self.beta_grid)):
            if len(set(values)) != len(values):
                raise UsageError(f"{name} lists a value more than once: {values}")


# config (de)serialization ---------------------------------------------------


def _key(f) -> str:
    """Config key and flag name of a RunConfig field."""
    return f.metadata.get("key", f.name.replace("_", "-"))


_FIELDS = {f.name: f for f in fields(RunConfig)}
_FIELD_BY_KEY = {_key(f): f for f in fields(RunConfig)}


def _is_list(f) -> bool:
    return typing.get_origin(f.type) is tuple


def _item_type(f):
    return typing.get_args(f.type)[0] if _is_list(f) else f.type


def _format_value(f, value) -> str:
    fmt = (lambda v: f"{v:.17g}") if _item_type(f) is float else str
    return ",".join(fmt(v) for v in value) if _is_list(f) else fmt(value)


def _parse_value(f, raw: str):
    parse = _item_type(f)
    if _is_list(f):
        return tuple(parse(p.strip()) for p in raw.split(",") if p.strip())
    return parse(raw)


def serialize_config(config: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{_key(f)} = {_format_value(f, getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_BY_KEY:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        f = _FIELD_BY_KEY[key]
        values[f.name] = _parse_value(f, raw.strip())
    if "command" not in values:
        raise UsageError("config must set 'command'")
    return RunConfig(**values)


# output writers -------------------------------------------------------------


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


def write_rows(rows, fmt: str, out_path: str) -> None:
    """Rows are dicts sharing one key order; csv or json, file or stdout."""
    if fmt == "json":
        payload = json.dumps({"rows": rows}, indent=1, default=float) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt_cell(v) for v in row.values()])
        payload = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _provenance(config: RunConfig, n) -> dict:
    return {
        "seed": config.seed,
        "n": n,
        "reps": config.reps,
        "embedding": config.embedding,
        "version": __version__,
        "backend": "numba" if _replay.HAVE_NUMBA else "python",
    }


# commands -------------------------------------------------------------------


def _one_n(config: RunConfig) -> int:
    if len(config.n) != 1:
        raise UsageError(f"{config.command} takes exactly one n, got {config.n}")
    return config.n[0]


def cmd_simulate(config: RunConfig) -> int:
    n = _one_n(config)
    # beta checkpoints beyond sqrt(n) would sit at step 0 (value 0); drop them
    beta_grid = tuple(b for b in config.beta_grid if b * b <= n)
    with _validating():
        spec = ExperimentSpec(
            n=n,
            embedding=config.embedding,
            functionals=tuple(Functional(f) for f in config.functionals),
            reps=config.reps,
            seed=config.seed,
            alpha_grid=config.alpha_grid,
            beta_grid=beta_grid,
            workers=config.workers,
        )
    result = run_monte_carlo(spec)
    rows = []
    for functional, kind, point, stats in result.rows():
        row = _provenance(config, n)
        row.update(
            kind=kind,
            alpha_or_beta=point,
            functional=functional.value,
            mean=stats.mean,
            stderr=stats.stderr,
        )
        rows.append(row)
    write_rows(rows, config.fmt, config.out)
    if config.raw_out:
        _write_raw(result, spec, config.raw_out)
    return 0


def _write_raw(result, spec, path: str) -> None:
    """Newline-delimited per-replication records (rep, functional, kind, point, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rep,functional,kind,point,value\n")
        for f in spec.functionals:
            for rep in range(spec.reps):
                try:
                    for j, a in enumerate(spec.alpha_grid):
                        fh.write(
                            f"{rep},{f.value},alpha,{a:.17g},"
                            f"{result.alpha_values[f][rep, j]:.17g}\n"
                        )
                    for j, b in enumerate(spec.beta_grid):
                        fh.write(
                            f"{rep},{f.value},beta,{b:.17g},"
                            f"{result.beta_values[f][rep, j]:.17g}\n"
                        )
                    fh.write(f"{rep},{f.value},total,nan,{result.totals[f][rep]:.17g}\n")
                except OSError as exc:
                    raise OSError(f"writing raw records for replication {rep}: {exc}") from exc


def cmd_limit(config: RunConfig) -> int:
    grid = config.alpha_grid
    if config.tol <= 0.0:
        raise UsageError("tol must be positive")
    if any(not 0.0 <= a < 1.0 for a in grid):
        raise UsageError("alpha grid must lie in [0, 1)")
    if Functional.QFW.value in config.functionals:
        with _validating():
            check_alpha_grid(grid)
    rows = []
    for name in config.functionals:
        functional = Functional(name)
        if functional is Functional.QFW:
            quad = phi_curve_quadrature(functional, grid, tol=config.tol)
            values = [(r.value, r.value, r.error) for r in quad]
        else:
            values = [
                (phi_closed_form(functional, a), phi_comparison_curve(functional, a), 0.0)
                for a in grid
            ]
        for a, (phi, phi_sim, err) in zip(grid, values):
            table = phi_classical_table(functional, a)
            rows.append(
                {
                    "seed": config.seed,
                    "n": "",
                    "reps": "",
                    "embedding": "",
                    "version": __version__,
                    "alpha": a,
                    "functional": functional.value,
                    "phi_normalized": phi,
                    "phi_match_simulation": phi_sim,
                    "phi_classical_table_if_any": "" if table is None else table,
                    "quadrature_error_estimate": err,
                }
            )
    write_rows(rows, config.fmt, config.out)
    return 0


def _rational(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_exact(config: RunConfig) -> int:
    if not config.table:
        raise UsageError(f"exact needs a table argument: one of {EXACT_TABLES}")
    n = _one_n(config)
    rows = []
    if config.table == "pmk":
        if n < 2:
            raise UsageError("pmk table needs n >= 2")
        for k in range(1, n):
            p = p_mk(n, k)
            exact = n <= PMK_EXACT_MAX
            rows.append(
                {
                    "m": n,
                    "k": k,
                    "p_rational": _rational(p) if exact else "",
                    "p_decimal": float(p),
                }
            )
    elif config.table == "condr":
        if not 2 <= n <= DP_MAX:
            raise UsageError(f"condr table needs 2 <= n <= {DP_MAX} (partition DP cap)")
        dp = partition_dp(n)
        for k in range(1, n):
            for l, er in sorted(dp.conditional_r_given_l(k).items()):
                rows.append(
                    {
                        "n": n,
                        "k": k,
                        "l": l,
                        "expected_R_rational": _rational(er),
                        "expected_R_decimal": float(er),
                        "formula_n_minus_l_over_n_minus_k": _rational(
                            Fraction(n - l, n - k)
                        ),
                    }
                )
    else:  # dp
        if not 2 <= n <= DP_MAX:
            raise UsageError(f"dp table needs 2 <= n <= {DP_MAX} (partition DP cap)")
        dp = partition_dp(n)
        for name in config.functionals:
            functional = Functional(name)
            cumulative = Fraction(0)
            for k in range(1, n):
                step = dp.expected_step_cost(functional, k)
                cumulative += step
                rows.append(
                    {
                        "n": n,
                        "k": k,
                        "functional": functional.value,
                        "e_step_rational": _rational(step),
                        "e_step_decimal": float(step),
                        "e_cumulative_rational": _rational(cumulative),
                        "e_cumulative_decimal": float(cumulative),
                    }
                )
    write_rows(rows, config.fmt, config.out)
    return 0


def cmd_verify(config: RunConfig) -> int:
    unknown = [c for c in config.only if c not in acceptance.CRITERIA]
    if unknown:
        raise UsageError(f"unknown criteria: {unknown}; known: {list(acceptance.CRITERIA)}")
    unknown = [m for m in config.mutate if m not in acceptance.MUTATIONS]
    if unknown:
        raise UsageError(f"unknown mutations: {unknown}; known: {list(acceptance.MUTATIONS)}")
    results = acceptance.run_criteria(only=config.only or None, mutate=config.mutate)
    for r in results:
        print(f"[{r.status:9s}] {r.cid}: {r.measured} (target {r.target}; tol {r.tolerance})")
    report = {
        "version": __version__,
        "passed": acceptance.suite_passed(results),
        "criteria": [
            {
                "cid": r.cid,
                "status": r.status,
                "passed": r.passed,
                "informative": r.informative,
                "measured": r.measured,
                "target": r.target,
                "tolerance": r.tolerance,
                "detail": r.detail,
                "seconds": r.seconds,
            }
            for r in results
        ],
    }
    payload = json.dumps(report, indent=1) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report["passed"] else 2


def cmd_sweep(config: RunConfig) -> int:
    if not config.n:
        raise UsageError("sweep needs at least one n (comma-separated for several)")
    if min(config.n) < 2:
        raise UsageError("sweep needs every n >= 2")
    if not 0.0 < config.eps < 0.5:
        raise UsageError("eps must be in (0, 1/2)")
    rows_out = []
    for row in regime_sweep(
        config.n, config.eps, reps=config.reps, seed=config.seed,
        embedding=Embedding(config.embedding),
    ):
        base = _provenance(config, row.n)
        base.update(
            eps=config.eps,
            k_sparse=row.k_sparse,
            k_full=row.k_full,
            mean_B_over_n_sparse=row.sparse.mean,
            ci95_sparse=row.sparse.ci95,
            mean_B_over_n_full=row.full.mean,
            ci95_full=row.full.ci95,
        )
        rows_out.append(base)
    write_rows(rows_out, config.fmt, config.out)
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "limit": cmd_limit,
    "exact": cmd_exact,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


# argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcoal",
        description="Merging-cost lab for the additive coalescent.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(p, name, **kw):
        """Add --<key> for RunConfig field `name`; a list of strings is repeatable."""
        f = _FIELDS[name]
        key = _key(f)
        if _is_list(f) and _item_type(f) is str:
            kw["action"] = "append"
        if "choices" not in kw:
            kw["metavar"] = key.replace("-", "_").upper()
        p.add_argument(f"--{key}", dest=name, default=None, **kw)

    def add_common(p):
        flag(p, "n", help="chain size; a comma-separated list of distinct sizes for sweep")
        flag(p, "reps")
        flag(p, "seed")
        flag(p, "embedding", choices=[e.value for e in Embedding])
        flag(p, "functionals", help="repeatable; defaults to all six")
        flag(p, "alpha_grid", help="comma-separated")
        flag(p, "beta_grid", help="comma-separated")
        flag(p, "tol")
        flag(p, "fmt", choices=("csv", "json"))
        flag(p, "out")
        p.add_argument("--config", type=str, default=None, help="flat key=value file")
        flag(p, "workers")

    p_sim = sub.add_parser("simulate", help="Monte Carlo cost curves and totals")
    add_common(p_sim)
    flag(p_sim, "raw_out", help="also stream per-replication records here")

    p_lim = sub.add_parser("limit", help="deterministic limit curves phi(alpha)")
    add_common(p_lim)

    p_ex = sub.add_parser("exact", help="exact oracle tables")
    p_ex.add_argument("table", choices=EXACT_TABLES)
    add_common(p_ex)

    p_ver = sub.add_parser("verify", help="run the acceptance suite")
    add_common(p_ver)
    flag(p_ver, "only", help="run only the named criteria (repeatable)")
    flag(p_ver, "mutate", help="mutation test mode (e.g. pmk)")

    p_sw = sub.add_parser("sweep", help="largest-cluster regime sweep")
    add_common(p_sw)
    flag(p_sw, "eps", help="regime exponent offset in (0, 1/2)")
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    """The config file's settings (if any), overridden by the flags given."""
    values = {}
    if ns.config:
        with open(ns.config, encoding="utf-8") as fh:
            values = asdict(parse_config(fh.read()))
    for name, f in _FIELDS.items():  # the subcommand is stored as `command` too
        given = getattr(ns, name, None)
        if given is not None:
            values[name] = tuple(given) if isinstance(given, list) else _parse_value(f, given)
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors (usage) or --help/--version
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    config = None
    try:
        with _validating():  # malformed numbers in flags or config text
            config = config_from_args(ns)
        return _DISPATCH[config.command](config)
    except UsageError as exc:
        return _report_error(1, {"error": str(exc), "kind": "usage"})
    except OSError as exc:
        return _report_error(3, {"error": str(exc), "kind": "io"}, config)
    except Exception as exc:
        return _report_error(3, {"error": f"{type(exc).__name__}: {exc}", "kind": "runtime"},
                             config)


def _report_error(code: int, payload: dict, config=None) -> int:
    """One JSON line on stderr; failures after parsing name the command and seed."""
    if config is not None:
        payload.update(command=config.command, seed=config.seed)
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
