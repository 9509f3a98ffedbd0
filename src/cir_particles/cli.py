"""Batch command-line front door.

Commands: simulate, regime, phase-diagram, verify, stationary-compare,
laplace-check, collision-scan.  Every artifact is a CSV whose first line is a
comment recording the code version, the command and the inputs it reads
(model, configuration, seed, start), so a report can be reproduced from its
own header.  Exit codes: 0 ok, 1 config error (a command line the parser
rejects included), 2 acceptance failure, 3 numerical failure.

``simulate`` runs all ``--paths`` rows as one recorded batch, monitored at
``--collision-tol``, and cuts each row into its trajectory and event rows.
Every simulating command starts from ``--x0`` when given; ``laplace-check``
starts the coordinate sum at its sum.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cirprocess import integrated_laplace, integrated_sum_paths
from .errors import BadK, ConfigError, NotEvaluable, RegimeMismatch, TooFewSamples, require_int
from .events import detect_events, first_passage_partial_sum
from .integrators import Scheme, SimConfig, Terminated, simulate_batch
from .model import ModelParams, classify_regime, multiple_collision_threshold
from .randomness import rng_streams
from .stats import binomial_summary, empirical_laplace, z_score


class _Key(NamedTuple):
    """One input key: how its text reads, its value when unset, and where it goes."""

    kind: type  # float, int or str: reads its flag and its --config line
    default: object = None  # a tuple makes the flag repeatable and the value a list
    header: str | None = None  # format spec of a run field's header text
    help: str | None = None
    command: str | None = None  # the one command with this flag; None: every command
    choices: tuple | None = None


# Every input key.  Its flag is --key with "-" for "_", its --config line is
# key=value, and a run field (one with a header spec) fills the ModelParams
# or SimConfig field of its name.  The run fields are in header order.
_KEYS = {
    "out": _Key(str, help="output directory for artifacts"),
    "alpha": _Key(float, 2.0, "g"),
    "beta": _Key(float, 0.5, "g"),
    "gamma": _Key(float, 1.0, "g"),
    "n": _Key(int, 2, ""),
    "scheme": _Key(str, Scheme.TRUNCATED_EULER.value, "",
                   choices=tuple(s.value for s in Scheme)),
    "dt": _Key(float, 1e-3, "g"),
    "horizon": _Key(float, 1.0, "g"),
    # Written whole (0.1234567 stays 0.1234567); unset is "auto", 10*sqrt(dt).
    "epsilon": _Key(float, None, ""),
    "collision_tol": _Key(float, 1e-3, "g"),
    "kick_cap": _Key(float, 1.0, "g"),
    "seed": _Key(int, 0, ""),
    "paths": _Key(int, 100, ""),
    "record_stride": _Key(int, 1, ""),
    # Written as the start it resolves to, the default 1, 2, ..., n when unset.
    "x0": _Key(str, None, "", help="comma-separated initial state"),
    "sweep": _Key(str, help="grid, e.g. 'alpha=0.4,0.7,2.6;beta=0.5;gamma=0'",
                  command="phase-diagram"),
    "mu": _Key(float, (0.5, 1.0), help="transform argument (repeatable)",
               command="laplace-check"),
    "t": _Key(float, (0.5, 1.0, 2.0), help="time horizon (repeatable)",
              command="laplace-check"),
    "k": _Key(int, help="partial-sum order (default: all k)", command="collision-scan"),
}


def _number(kind, field: str, text: str):
    """``text`` read by ``kind`` (int or float); a ConfigError naming ``field`` if it is not one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{field} must be {what}, got {text!r}") from None


def _parse_config_file(path: str) -> dict:
    """The keys a key=value config file sets, each read as its ``_KEYS`` entry says."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the config file: {exc}") from None
    values: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line is not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        spec = _KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown config field {key!r}")
        value = val if spec.kind is str else _number(spec.kind, key, val)
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"{key} must be one of {', '.join(spec.choices)}, got {val!r}")
        values[key] = [value] if isinstance(spec.default, tuple) else value
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors (exit 1, one line)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cir-particles",
        description="Monte Carlo lab for colliding CIR particle systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help="flat key=value config file")
        for key, spec in _KEYS.items():
            if spec.command in (None, name):
                command.add_argument(
                    "--" + key.replace("_", "-"), type=spec.kind, help=spec.help,
                    choices=spec.choices,
                    action="append" if isinstance(spec.default, tuple) else "store",
                )
    sub.choices["verify"].add_argument("--only", help="comma-separated criterion numbers")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Every key's value: its flag if given, else its --config line, else its default."""
    lines = {} if args.config is None else _parse_config_file(args.config)
    values = {}
    for key, spec in _KEYS.items():
        flag = getattr(args, key, None)  # None too where the command has no such flag
        values[key] = flag if flag is not None else lines.get(key, spec.default)
    return values


def _build(cls, values: dict):
    """ModelParams or SimConfig, each of its fields the value of the key of its name."""
    built = cls(**{field.name: values[field.name] for field in dataclasses.fields(cls)})
    if cls is SimConfig:  # the stride simulate records at is checked with every run
        require_int("record_stride", values["record_stride"], 1)
    return built


def _initial(values: dict, n: int) -> np.ndarray:
    """The resolved start as an (n,) array: --x0, or the default 1, 2, ..., n."""
    if values["x0"] is None:
        return np.arange(1.0, n + 1.0)
    try:
        arr = np.array([float(v) for v in values["x0"].split(",")])
    except ValueError:
        raise ConfigError(f"x0 is not a list of numbers: {values['x0']!r}") from None
    if arr.size != n:
        raise ConfigError(f"x0 needs {n} entries, got {arr.size}")
    if not (np.isfinite(arr).all() and (arr >= 0).all() and (np.diff(arr) >= 0).all()):
        raise ConfigError(f"x0 must be finite, nonnegative and sorted: {values['x0']!r}")
    return arr


# The run fields laplace-check reads; it has no scheme and no horizon.
_LAPLACE_FIELDS = ("alpha", "beta", "gamma", "n", "kappa", "dt", "seed", "paths", "x0")
# classify_regime reads the model alone.
_REGIME_FIELDS = ("alpha", "beta", "gamma", "n", "kappa")
# A sweep records no trajectory, so it has no record_stride.
_SWEEP_FIELDS = (
    "alpha", "beta", "gamma", "n", "kappa", "scheme", "dt", "horizon", "epsilon",
    "collision_tol", "kick_cap", "seed", "paths", "x0",
)


def _run_fields(values: dict, keys=None) -> dict:
    """Header fields of a run, all of them or those named in ``keys``."""
    params = _build(ModelParams, values)
    text = {}
    for key, spec in _KEYS.items():
        if spec.header is None:
            continue
        if key == "x0":
            text[key] = ",".join(map(repr, _initial(values, params.n).tolist()))
        else:
            text[key] = "auto" if values[key] is None else format(values[key], spec.header)
        if key == "n":  # the model's kappa follows n
            text["kappa"] = f"{params.kappa:g}"
    return text if keys is None else {key: text[key] for key in keys}


def _header(command: str, fields: dict) -> str:
    """The provenance line: version, command, then each field as key=value."""
    items = {"version": __version__, "command": command, **fields}
    return "# cir-particles " + " ".join(f"{k}={v}" for k, v in items.items())


def _out_dir(values: dict) -> Path:
    path = Path(values["out"] or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run(args):
    """A simulating command's values, model, configuration, start and output directory."""
    values = _resolve(args)
    params = _build(ModelParams, values)
    return values, params, _build(SimConfig, values), _initial(values, params.n), _out_dir(values)


def cmd_simulate(args) -> int:
    values, params, config, initial, out = _run(args)
    n_steps = config.n_steps
    stride = min(values["record_stride"], n_steps)  # any longer stride records 0 and n_steps
    try:  # steps 0, stride, 2*stride, ... and the last; numpy refuses too many at once
        steps = np.arange(0, n_steps + stride, stride, dtype=np.int64)
    except (ValueError, OverflowError):
        n_rec = -(-n_steps // stride) + 1
        raise ConfigError(f"a recording of {n_rec:.3g} steps does not fit in memory") from None
    steps[-1] = n_steps
    res = simulate_batch(
        params, config, initial=initial, record_steps=steps,
        event_levels=[config.collision_tol],
    )
    events = detect_events(res, config.collision_tol)
    failures = 0
    header = _header("simulate", _run_fields(values))
    traj_lines = [header,
                  "path_id,t," + ",".join(f"lambda_{i+1}" for i in range(params.n))]
    event_lines = [header, "path_id,kind,index,time,level"]
    for path_id in range(config.paths):
        record = res.path_record(path_id)
        if record.terminated == Terminated.NUMERICAL_FAILURE:
            failures += 1
        # Times, states and event fields are Python floats: repr is their text.
        for t, row in zip(record.times.tolist(), record.lambdas.tolist()):
            traj_lines.append(f"{path_id},{t!r}," + ",".join(map(repr, row)))
        for ev in events[path_id]:
            idx = "" if ev.index is None else ev.index
            event_lines.append(f"{path_id},{ev.kind.value},{idx},{ev.time!r},{ev.level!r}")
    (out / "trajectories.csv").write_text("\n".join(traj_lines) + "\n")
    (out / "events.csv").write_text("\n".join(event_lines) + "\n")
    print(f"wrote {out / 'trajectories.csv'} and {out / 'events.csv'}")
    return 3 if failures else 0


def _regime_text(values: dict) -> str:
    params = _build(ModelParams, values)
    report = classify_regime(params)
    lines = [
        _header("regime", _run_fields(values, _REGIME_FIELDS)),
        f"kappa={report.kappa:g}",
        f"global_solution={report.global_solution.value}",
        f"pair_collisions={report.pair_collisions.value}",
        f"zero_hit_lambda1={report.zero_hit_lambda1.value}",
    ]
    for k, verdict in report.multiple_collision_k.items():
        value = multiple_collision_threshold(params, k)[0]
        lines.append(f"multiple_collision_k{k}: threshold={value:g} verdict={verdict.value}")
    return "\n".join(lines)


def cmd_regime(args) -> int:
    values = _resolve(args)
    text = _regime_text(values)
    print(text)
    if values["out"] is not None:
        out = _out_dir(values)
        (out / "regime.txt").write_text(text + "\n")
    return 0


def _parse_sweep(spec: str) -> list[dict]:
    axes: dict[str, list[float]] = {}
    for part in spec.split(";"):
        if not part.strip():
            continue
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in ("alpha", "beta", "gamma"):
            raise ConfigError(f"sweep axis must be alpha/beta/gamma, got {key!r}")
        axes[key] = [_number(float, f"sweep axis {key}", v) for v in vals.split(",") if v.strip()]
        if not axes[key]:
            raise ConfigError(f"sweep axis {key} is empty")
    if not axes:
        raise ConfigError("sweep spec is empty")
    grid = [{}]
    for key, vals in axes.items():
        grid = [{**point, key: v} for point in grid for v in vals]
    return grid


def cmd_phase_diagram(args) -> int:
    values = _resolve(args)
    if values["paths"] < 0:
        raise ConfigError(f"paths must be >= 0 (0 skips the simulation), got {values['paths']}")
    spec = values["sweep"]
    if not spec:
        raise ConfigError("sweep is not set: give --sweep or sweep= in --config")
    initial = _initial(values, values["n"])
    header = _header("phase-diagram", _run_fields(values, _SWEEP_FIELDS))
    runs = []  # every point's model and configuration, built before the directory
    for point in _parse_sweep(spec):
        pv = {**values, **point}
        params = _build(ModelParams, pv)
        runs.append((params, _build(SimConfig, pv) if pv["paths"] > 0 else None))
    out = _out_dir(values)
    lines = [
        header,
        "alpha,beta,gamma,n,kappa,global_solution,pair_collisions,zero_hit_lambda1,"
        "collision_freq,collision_ci_low,collision_ci_high,"
        "zero_hit_freq,zero_hit_ci_low,zero_hit_ci_high",
    ]
    for params, config in runs:
        report = classify_regime(params)
        if config is not None:
            res = simulate_batch(
                params, config, initial=initial, event_levels=[config.collision_tol]
            )
            mon = res.monitors[config.collision_tol]
            coll = int((~np.isnan(mon["gap"])).any(axis=1).sum())
            zero = int((~np.isnan(mon["psum"][:, 0])).sum())
            cs = binomial_summary(coll, res.n_paths)
            zs = binomial_summary(zero, res.n_paths)
            empirical = (
                f"{cs.estimate:.6g},{cs.ci95[0]:.6g},{cs.ci95[1]:.6g},"
                f"{zs.estimate:.6g},{zs.ci95[0]:.6g},{zs.ci95[1]:.6g}"
            )
        else:
            empirical = ",,,,,"
        lines.append(
            f"{params.alpha:g},{params.beta:g},{params.gamma:g},{params.n},"
            f"{params.kappa:g},{report.global_solution.value},"
            f"{report.pair_collisions.value},{report.zero_hit_lambda1.value},"
            + empirical
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_verify(args) -> int:
    from .acceptance import CRITERIA, run_acceptance

    only = None
    if args.only is not None:
        only = [_number(int, "only", v) for v in args.only.split(",")]
        known = sorted(idx for idx, _ in CRITERIA)
        unknown = [idx for idx in only if idx not in known]
        if unknown:
            raise ConfigError(f"only names no criterion {unknown}; the criteria are {known}")
    values = _resolve(args)
    results = run_acceptance(only=only)
    if values["out"] is not None:
        out_dir = _out_dir(values)
        only_text = ",".join(map(str, only)) if only else "all"
        lines = [_header("verify", {"only": only_text}), "criterion,name,passed,details"]
        for r in results:
            detail = " | ".join(r.details).replace(",", ";")
            lines.append(f"{r.index},{r.name},{int(r.passed)},{detail}")
        (out_dir / "acceptance.csv").write_text("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 2


def cmd_stationary_compare(args) -> int:
    from .stationary import compare_long_run

    values, params, config, initial, out = _run(args)
    report = compare_long_run(params, config, initial=initial)
    lines = [
        _header("stationary-compare", _run_fields(values)),
        "name,estimate,stderr,ci_low,ci_high,ks_D,ks_p,n_samples",
    ]
    for name, s in report.items():
        lines.append(
            f"{name},{s.estimate:.8g},{s.stderr:.4g},{s.ci95[0]:.8g},"
            f"{s.ci95[1]:.8g},{s.ks_D:.6g},{s.ks_p:.6g},{s.n_samples}"
        )
    (out / "stationary.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'stationary.csv'}")
    return 0


def cmd_laplace_check(args) -> int:
    values = _resolve(args)
    params = _build(ModelParams, values)
    mus = values["mu"]
    t_probes = sorted(values["t"])
    n_paths = values["paths"]
    if n_paths < 2:
        raise ConfigError(f"paths must be >= 2 for a Monte Carlo stderr, got {n_paths}")
    for mu in mus:
        if not mu >= 0.0:
            raise ConfigError(f"mu must be >= 0, got {mu:g}")
    sum0 = float(_initial(values, params.n).sum())
    # An exploding sum overflows to inf; that is reported below, not warned about.
    with np.errstate(over="ignore"):
        probes = integrated_sum_paths(
            params, sum0, n_paths, values["dt"], t_probes, rng_streams(values["seed"], 0)
        )
    # After the paths, which refuse a bad dt or probe time before their first step.
    out = _out_dir(values)
    for tp in t_probes:
        if not np.isfinite(probes[tp]).all():
            print(f"numerical failure: the integrated sum is not finite at t={tp:g}",
                  file=sys.stderr)
            return 3
    # gamma^2 + 2 mu past the largest double leaves no closed form to compare with.
    queries = [(mu, tp, integrated_laplace(params, sum0, mu, tp))
               for tp in t_probes for mu in mus]
    for mu, tp, query in queries:
        if not math.isfinite(query.value):
            print(f"numerical failure: the closed form is not finite at mu={mu:g}, t={tp:g}",
                  file=sys.stderr)
            return 3
    lines = [
        _header("laplace-check", _run_fields(values, _LAPLACE_FIELDS)),
        "mu,t,closed_form,mc_estimate,mc_stderr,z_score",
    ]
    zs = []
    for mu, tp, query in queries:
        emp = empirical_laplace(probes[tp], mu)
        zs.append(z_score(emp, query.value))
        lines.append(
            f"{mu:g},{tp:g},{query.value:.8g},{emp.estimate:.8g},"
            f"{emp.stderr:.4g},{zs[-1]:.4g}"
        )
    (out / "laplace.csv").write_text("\n".join(lines) + "\n")
    worst = float(np.max(np.abs(zs)))  # a NaN z stays NaN, as max() would not keep it
    print(f"wrote {out / 'laplace.csv'} (worst |z| = {worst:.2f})")
    return 0


def cmd_collision_scan(args) -> int:
    values, params, config, initial, out = _run(args)
    # With no k, every k is scanned.
    ks = range(1, params.n + 1) if values["k"] is None else [values["k"]]
    lines = [
        _header("collision-scan", _run_fields(values)),
        "k,delta,hit_fraction,ci_low,ci_high,n_paths",
    ]
    for k in ks:
        ladder = first_passage_partial_sum(params, config, k, initial=initial)
        for delta, summary in sorted(ladder.items(), reverse=True):
            lines.append(
                f"{k},{delta:g},{summary.estimate:.6g},{summary.ci95[0]:.6g},"
                f"{summary.ci95[1]:.6g},{summary.n_samples}"
            )
    (out / "first_passage.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'first_passage.csv'}")
    return 0


# Each command: its function and its help.
_COMMANDS = {
    "simulate": (cmd_simulate, "sample trajectories"),
    "regime": (cmd_regime, "analytic classification"),
    "phase-diagram": (cmd_phase_diagram, "sweep grid"),
    "verify": (cmd_verify, "run acceptance suite"),
    "stationary-compare": (cmd_stationary_compare, "long-run law vs exact references"),
    "laplace-check": (cmd_laplace_check, "integrated-CIR Laplace transform vs Monte Carlo"),
    "collision-scan": (cmd_collision_scan, "partial-sum first-passage ladder"),
}

# The stderr prefix of each input error; each exits 1.  An error takes the
# prefix of the first class it is an instance of.
_EXIT_1 = {
    ConfigError: "config error",
    RegimeMismatch: "regime mismatch",
    NotEvaluable: "not evaluable",
    BadK: "bad k",
    TooFewSamples: "too few samples",
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except tuple(_EXIT_1) as exc:
        prefix = next(text for cls, text in _EXIT_1.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
