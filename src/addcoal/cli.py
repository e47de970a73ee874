"""Command-line surface: simulate | limit | exact | verify | sweep.

Config files are flat UTF-8 ``key = value`` text with keys matching the
flag names; unknown keys are rejected and explicitly given flags override
file values.  Output rows lead with provenance: simulate and sweep rows
with (seed, n, reps, embedding, version, backend), limit rows with the
same columns with n, reps and embedding blank (and, per quadrature point,
the certified cutoff that produced it), exact rows with (version,
backend); the verify report carries version and backend.  After a
successful run, simulate also writes one JSON side record on stderr: the
provenance columns and the worker count, which the rows leave out so that
they stay byte-identical across worker counts.  Exit codes:
0 success, 1 usage error (invalid flags, config or argument values, or a
config file that cannot be read), 2 verification failure, 3 runtime
failure (an error inside a computation or while writing output; the error
report names the command and the seed).
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from . import __version__, acceptance
from .cost_engine import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_BETA_GRID,
    Functional,
    alpha_in_range,
)
from .exact_oracles import DP_MAX, PMK_EXACT_MAX, p_mk_row, partition_dp
from .experiment import (
    ExperimentSpec,
    check_sweep,
    regime_sweep,
    run_monte_carlo,
)
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


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation's settings; round-trips through config text.

    Each field other than `command` is set by the config line
    ``<key> = value`` and, on the subcommands that read it (`COMMANDS`), by
    the flag ``--<key>`` (or, for `table`, the positional of that name).
    The key is the field name with dashes for underscores unless the
    field's metadata names another; the metadata also holds the flag's help
    text and the `choices` the field accepts, if any.  The annotation gives
    the value syntax: ``tuple[X, ...]`` is a comma-separated list of X (a
    list of strings is given as a repeated flag on the command line).
    """

    command: str
    n: tuple[int, ...] = field(default=(1000,), metadata={
        "help": "chain size, 2 <= n < 2**31; a comma-separated list of distinct sizes for sweep"})
    embedding: str = field(default="direct",
                           metadata={"choices": tuple(e.value for e in Embedding)})
    functionals: tuple[str, ...] = field(default=_ALL_FUNCTIONALS, metadata={
        "key": "functional", "choices": _ALL_FUNCTIONALS,
        "help": "repeatable; defaults to all six"})
    reps: int = 1
    seed: int = 0
    alpha_grid: tuple[float, ...] = field(default=DEFAULT_ALPHA_GRID,
                                          metadata={"help": "comma-separated"})
    beta_grid: tuple[float, ...] = field(default=DEFAULT_BETA_GRID,
                                         metadata={"help": "comma-separated"})
    tol: float = 1e-8
    fmt: str = field(default="csv", metadata={"key": "format", "choices": ("csv", "json")})
    out: str = ""
    raw_out: str = field(default="", metadata={"help": "also stream per-replication records here"})
    workers: int = 1
    eps: float = field(default=0.15, metadata={"help": "regime exponent offset in (0, 1/2)"})
    table: str = field(default="", metadata={"choices": ("pmk", "condr", "dp")})
    only: tuple[str, ...] = field(default=(), metadata={
        "help": "run only the named criteria (repeatable)"})
    mutate: tuple[str, ...] = field(default=(), metadata={"help": "mutation test mode (e.g. pmk)"})

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; "
                             f"expected one of {tuple(COMMANDS)}")
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices and value != f.default:
                for v in value if _is_list(f) else (value,):
                    if v not in choices:
                        raise UsageError(f"unknown {_key(f)} {v!r}; known: {choices}")
        if self.reps < 1 or self.workers < 1:
            raise UsageError("reps and workers must be >= 1")
        if not self.functionals:
            raise UsageError("functional must name at least one functional")
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
    kind = _item_type(f)
    items = [p.strip() for p in raw.split(",") if p.strip()] if _is_list(f) else [raw]
    try:
        values = tuple(kind(p) for p in items)
    except ValueError:
        what = f"comma-separated {kind.__name__} values" if _is_list(f) else kind.__name__
        raise ValueError(f"{_key(f)} must be {what}, got {raw!r}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ValueError(f"{_key(f)} must be finite, got {raw!r}")
    return values if _is_list(f) else values[0]


def serialize_config(config: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{_key(f)} = {_format_value(f, getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    values, seen = {}, {}  # seen: the line that set each key
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
        if key in seen:
            raise UsageError(f"config lines {seen[key]} and {lineno} both set {key!r}")
        seen[key] = lineno
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
    _write(payload, out_path)


def _write(payload: str, out_path: str) -> None:
    """Write a command's output to `out_path`, or to stdout if it is empty."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# the code that produced an output: exact rows, which draw nothing, lead with
# this alone, and it heads the verify report
_BUILD = {"version": __version__, "backend": "python"}


def _provenance(config: RunConfig, n="", reps="", embedding="") -> dict:
    """The leading columns of a simulate, sweep or limit row (blank where unused)."""
    return {"seed": config.seed, "n": n, "reps": reps, "embedding": embedding, **_BUILD}


# commands -------------------------------------------------------------------


def _one_n(config: RunConfig) -> int:
    if len(config.n) != 1:
        raise UsageError(f"{config.command} takes exactly one n, got {config.n}")
    return config.n[0]


def cmd_simulate(config: RunConfig) -> int:
    n = _one_n(config)
    if config.out and config.raw_out and (os.path.abspath(config.out)
                                          == os.path.abspath(config.raw_out)):
        raise UsageError(f"out and raw-out both name {config.raw_out!r}")
    with _validating():
        spec = ExperimentSpec(
            n=n,
            embedding=config.embedding,
            functionals=tuple(Functional(f) for f in config.functionals),
            reps=config.reps,
            seed=config.seed,
            alpha_grid=config.alpha_grid,
            beta_grid=config.beta_grid,
            workers=config.workers,
        )
    result = run_monte_carlo(spec)
    rows = []
    for functional, kind, point, stats in result.rows():
        row = _provenance(config, n, config.reps, config.embedding)
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
    # the worker count goes to stderr, so that the rows stay byte-identical across it
    _stderr_line({**_provenance(config, n, config.reps, config.embedding),
                  "workers": config.workers})
    return 0


def _write_raw(result, spec, path: str) -> None:
    """Newline-delimited per-replication records (rep, functional, kind, point, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rep,functional,kind,point,value\n")
        for f in spec.functionals:
            columns = result.columns(f)
            for rep in range(spec.reps):
                try:
                    for kind, point, values in columns:
                        fh.write(f"{rep},{f.value},{kind},{point:.17g},{values[rep]:.17g}\n")
                except OSError as exc:
                    raise OSError(f"writing raw records for replication {rep}: {exc}") from exc


def cmd_limit(config: RunConfig) -> int:
    grid = config.alpha_grid
    if config.tol <= 0.0:
        raise UsageError("tol must be positive")
    if not all(alpha_in_range(a) for a in grid):
        raise UsageError("alpha grid must lie in [0, 1)")
    if Functional.QFW.value in config.functionals:
        with _validating():
            check_alpha_grid(grid)
    rows = []
    for name in config.functionals:
        functional = Functional(name)
        if functional is Functional.QFW:
            quad = phi_curve_quadrature(functional, grid, tol=config.tol)
            values = [(r.value, r.value, r.error, r.kmax) for r in quad]
        else:
            values = [
                (phi_closed_form(functional, a), phi_comparison_curve(functional, a), 0.0, "")
                for a in grid
            ]
        for a, (phi, phi_sim, err, kmax) in zip(grid, values):
            table = phi_classical_table(functional, a)
            rows.append(
                {
                    **_provenance(config),
                    "alpha": a,
                    "functional": functional.value,
                    "phi_normalized": phi,
                    "phi_match_simulation": phi_sim,
                    "phi_classical_table_if_any": "" if table is None else table,
                    "quadrature_error_estimate": err,
                    # the certified cutoff of the segment ending at alpha; closed forms have none
                    "quadrature_kmax": kmax,
                }
            )
    write_rows(rows, config.fmt, config.out)
    return 0


def _rational(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_exact(config: RunConfig) -> int:
    if not config.table:
        raise UsageError("exact needs a table argument")
    n = _one_n(config)
    if config.table == "pmk" and n < 2:
        raise UsageError("pmk table needs n >= 2")
    if config.table != "pmk" and not 2 <= n <= DP_MAX:
        raise UsageError(f"{config.table} table needs 2 <= n <= {DP_MAX} (partition DP cap)")
    rows = []
    if config.table == "pmk":
        exact = n <= PMK_EXACT_MAX
        for k, p in enumerate(p_mk_row(n), start=1):
            rows.append(
                {
                    **_BUILD,
                    "m": n,
                    "k": k,
                    "p_rational": _rational(p) if exact else "",
                    "p_decimal": float(p),
                }
            )
    elif config.table == "condr":
        dp = partition_dp(n)
        for k in range(1, n):
            for l, er in sorted(dp.conditional_r_given_l(k).items()):
                rows.append(
                    {
                        **_BUILD,
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
        dp = partition_dp(n)
        for name in config.functionals:
            functional = Functional(name)
            cumulative = Fraction(0)
            for k in range(1, n):
                step = dp.expected_step_cost(functional, k)
                cumulative += step
                rows.append(
                    {
                        **_BUILD,
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
    with _validating():
        acceptance.check_selection(config.only, config.mutate)
    results, samples = acceptance.run_criteria(only=config.only or None, mutate=config.mutate)
    for r in results:
        for s in samples:
            if s["criteria"][0] == r.cid:
                print(f"[sample   ] {s['sample']}: {s['seconds']} s on {s['workers']} workers, "
                      f"read by {', '.join(s['criteria'])}")
        print(f"[{r.status:9s}] {r.cid}: {r.measured} (target {r.target}; tol {r.tolerance})")
    report = {
        **_BUILD,
        "passed": acceptance.suite_passed(results),
        "criteria": [{"cid": r.cid, "status": r.status, **asdict(r)} for r in results],
        "samples": samples,
    }
    _write(json.dumps(report, indent=1) + "\n", config.out)
    return 0 if report["passed"] else 2


def cmd_sweep(config: RunConfig) -> int:
    if not config.n:
        raise UsageError("sweep needs at least one n (comma-separated for several)")
    with _validating():
        check_sweep(config.n, config.eps, config.reps)
    rows_out = []
    for row in regime_sweep(
        config.n, config.eps, reps=config.reps, seed=config.seed,
        embedding=Embedding(config.embedding),
    ):
        base = _provenance(config, row.n, config.reps, config.embedding)
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


# Each subcommand's help line, handler and the RunConfig fields it reads,
# which are exactly its flags (exact's `table` is a positional).  Config
# files accept every key whatever the command.
COMMANDS = {
    "simulate": ("Monte Carlo cost curves and totals", cmd_simulate,
                 ("n", "reps", "seed", "embedding", "functionals", "alpha_grid", "beta_grid",
                  "fmt", "out", "workers", "raw_out")),
    "limit": ("deterministic limit curves phi(alpha)", cmd_limit,
              ("functionals", "alpha_grid", "tol", "seed", "fmt", "out")),
    "exact": ("exact oracle tables", cmd_exact, ("table", "n", "functionals", "fmt", "out")),
    "verify": ("run the acceptance suite", cmd_verify, ("only", "mutate", "out")),
    "sweep": ("largest-cluster regime sweep", cmd_sweep,
              ("n", "reps", "seed", "embedding", "fmt", "out", "eps")),
}


# argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose own usage errors (unknown flag, bad choice,
    missing subcommand) raise UsageError, so they are reported like every
    other usage error; subparsers are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="addcoal",
        description="Merging-cost lab for the additive coalescent.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_line, _, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name in names:
            f = _FIELDS[name]
            kw = dict(choices=f.metadata.get("choices"), help=f.metadata.get("help"))
            if name == "table":  # optional here, so that a config file can set it
                p.add_argument(name, nargs="?", **kw)
                continue
            if not kw["choices"]:
                kw["metavar"] = _key(f).replace("-", "_").upper()
            if _is_list(f) and _item_type(f) is str:
                kw["action"] = "append"
            p.add_argument(f"--{_key(f)}", dest=name, default=None, **kw)
        p.add_argument("--config", type=str, default=None, help="flat key=value file")
    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    """The config file's settings (if any), overridden by the flags given."""
    values = {}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read config {ns.config!r}: {exc.strerror or exc}") from exc
        values = asdict(parse_config(text))
    for name, f in _FIELDS.items():  # the subcommand is stored as `command` too
        given = getattr(ns, name, None)
        if given is not None:
            values[name] = tuple(given) if isinstance(given, list) else _parse_value(f, given)
    return RunConfig(**values)


def main(argv=None) -> int:
    config = None
    try:
        ns = _build_parser().parse_args(argv)
        with _validating():  # malformed numbers in flags or config text
            config = config_from_args(ns)
        return COMMANDS[config.command][1](config)
    except SystemExit as exc:  # --help and --version
        return exc.code
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
    _stderr_line(payload)
    return code


def _stderr_line(payload: dict) -> None:
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
