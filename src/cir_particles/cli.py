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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cirprocess import integrated_laplace, integrated_sum_paths
from .errors import BadK, ConfigError, NotEvaluable, RegimeMismatch, TooFewSamples
from .events import detect_events, first_passage_partial_sum
from .integrators import Scheme, SimConfig, Terminated, grid_step, simulate_batch
from .model import ModelParams, classify_regime, multiple_collision_threshold
from .randomness import rng_streams
from .stats import empirical_laplace, z_score

_FLOAT_KEYS = {
    "alpha", "beta", "gamma", "dt", "horizon", "epsilon", "collision_tol",
    "kick_cap", "mu", "t",
}
_INT_KEYS = {"n", "seed", "paths", "record_stride", "k"}
_STR_KEYS = {"scheme", "x0", "out", "sweep"}


def _number(kind, field: str, text: str):
    """``text`` read by ``kind`` (int or float); a ConfigError naming ``field`` if it is not one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{field} must be {what}, got {text!r}") from None


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line is not key=value: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in _FLOAT_KEYS:
            values[key] = _number(float, key, val)
        elif key in _INT_KEYS:
            values[key] = _number(int, key, val)
        elif key in _STR_KEYS:
            values[key] = val
        else:
            raise ConfigError(f"unknown config field {key!r}")
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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output directory for artifacts")
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--gamma", type=float)
    common.add_argument("--n", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--paths", type=int)
    common.add_argument("--dt", type=float)
    common.add_argument("--horizon", type=float)
    common.add_argument("--epsilon", type=float)
    common.add_argument("--collision-tol", dest="collision_tol", type=float)
    common.add_argument("--record-stride", dest="record_stride", type=int)
    common.add_argument("--kick-cap", dest="kick_cap", type=float)
    common.add_argument(
        "--scheme", choices=[s.value for s in Scheme], dest="scheme"
    )
    common.add_argument("--x0", help="comma-separated initial state")

    sub.add_parser("simulate", parents=[common], help="sample trajectories")
    sub.add_parser("regime", parents=[common], help="analytic classification")
    pd = sub.add_parser("phase-diagram", parents=[common], help="sweep grid")
    pd.add_argument("--sweep", help="grid, e.g. 'alpha=0.4,0.7,2.6;beta=0.5;gamma=0'")
    ver = sub.add_parser("verify", parents=[common], help="run acceptance suite")
    ver.add_argument("--only", help="comma-separated criterion numbers")
    sub.add_parser("stationary-compare", parents=[common],
                   help="long-run law vs exact references")
    lc = sub.add_parser("laplace-check", parents=[common],
                        help="integrated-CIR Laplace transform vs Monte Carlo")
    lc.add_argument("--mu", type=float, action="append",
                    help="transform argument (repeatable)")
    lc.add_argument("--t", dest="t_probe", type=float, action="append",
                    help="time horizon (repeatable)")
    cs = sub.add_parser("collision-scan", parents=[common],
                        help="partial-sum first-passage ladder")
    cs.add_argument("--k", type=int, help="partial-sum order (default: all k)")
    return parser


_DEFAULTS = {
    "alpha": 2.0, "beta": 0.5, "gamma": 1.0, "n": 2,
    "seed": 0, "paths": 100, "dt": 1e-3, "horizon": 1.0,
    "epsilon": None, "collision_tol": 1e-3, "record_stride": 1,
    "kick_cap": 1.0, "scheme": Scheme.TRUNCATED_EULER.value,
}


def _resolve(args: argparse.Namespace) -> dict:
    values = dict(_DEFAULTS)
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    for key in values:
        given = getattr(args, key, None)
        if given is not None:
            values[key] = given
    values["x0"] = getattr(args, "x0", None) or values.get("x0")
    return values


def _model(values: dict) -> ModelParams:
    return ModelParams(
        alpha=values["alpha"], beta=values["beta"],
        gamma=values["gamma"], n=values["n"],
    )


def _sim_config(values: dict) -> SimConfig:
    return SimConfig(
        scheme=Scheme(values["scheme"]),
        dt=values["dt"],
        horizon=values["horizon"],
        epsilon=values["epsilon"],
        collision_tol=values["collision_tol"],
        seed=values["seed"],
        paths=values["paths"],
        record_stride=values["record_stride"],
        kick_cap=values["kick_cap"],
    )


def _initial(values: dict, n: int):
    """The --x0 start as an (n,) array, or None for the default start."""
    if values.get("x0") is None:
        return None
    try:
        arr = np.array([float(v) for v in str(values["x0"]).split(",")])
    except ValueError:
        raise ConfigError(f"x0 is not a list of numbers: {values['x0']!r}") from None
    if arr.size != n:
        raise ConfigError(f"x0 needs {n} entries, got {arr.size}")
    if not (np.isfinite(arr).all() and (arr >= 0).all() and (np.diff(arr) >= 0).all()):
        raise ConfigError(f"x0 must be finite, nonnegative and sorted: {values['x0']!r}")
    return arr


def _start(values: dict, n: int) -> np.ndarray:
    """The resolved start: --x0, or the default 1, 2, ..., n."""
    x0 = _initial(values, n)
    return np.arange(1.0, n + 1.0) if x0 is None else x0


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
    params = _model(values)
    fields = {
        "alpha": f"{values['alpha']:g}", "beta": f"{values['beta']:g}",
        "gamma": f"{values['gamma']:g}", "n": f"{values['n']}",
        "kappa": f"{params.kappa:g}", "scheme": f"{values['scheme']}",
        "dt": f"{values['dt']:g}", "horizon": f"{values['horizon']:g}",
        "epsilon": f"{values['epsilon'] if values['epsilon'] is not None else 'auto'}",
        "collision_tol": f"{values['collision_tol']:g}",
        "kick_cap": f"{values['kick_cap']:g}",
        "seed": f"{values['seed']}", "paths": f"{values['paths']}",
        "record_stride": f"{values['record_stride']}",
        "x0": ",".join(map(repr, _start(values, params.n).tolist())),
    }
    return fields if keys is None else {key: fields[key] for key in keys}


def _header(command: str, fields: dict) -> str:
    """The provenance line: version, command, then each field as key=value."""
    items = {"version": __version__, "command": command, **fields}
    return "# cir-particles " + " ".join(f"{k}={v}" for k, v in items.items())


def _out_given(values: dict, args) -> str | None:
    """The output directory from --out or the config file's out=, if either sets one."""
    return getattr(args, "out", None) or values.get("out")


def _out_dir(values: dict, args) -> Path:
    path = Path(_out_given(values, args) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    values = _resolve(args)
    params = _model(values)
    config = _sim_config(values)
    initial = _initial(values, params.n)
    out = _out_dir(values, args)

    res = simulate_batch(
        params, config, initial=initial, record=True,
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
    params = _model(values)
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
    if _out_given(values, args):
        out = _out_dir(values, args)
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
    # --sweep replaces a config file's sweep=.
    spec = getattr(args, "sweep", None) or values.get("sweep")
    if not spec:
        raise ConfigError("sweep is not set: give --sweep or sweep= in --config")
    grid = _parse_sweep(spec)
    initial = _initial(values, values["n"])
    out = _out_dir(values, args)
    lines = [
        _header("phase-diagram", _run_fields(values, _SWEEP_FIELDS)),
        "alpha,beta,gamma,n,kappa,global_solution,pair_collisions,zero_hit_lambda1,"
        "collision_freq,collision_ci_low,collision_ci_high,"
        "zero_hit_freq,zero_hit_ci_low,zero_hit_ci_high",
    ]
    for point in grid:
        pv = dict(values)
        pv.update(point)
        params = _model(pv)
        report = classify_regime(params)
        if pv["paths"] > 0:
            from .stats import binomial_summary

            config = _sim_config(pv)
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
    if getattr(args, "only", None):
        only = [_number(int, "only", v) for v in args.only.split(",")]
        known = sorted(idx for idx, _ in CRITERIA)
        unknown = [idx for idx in only if idx not in known]
        if unknown:
            raise ConfigError(f"only names no criterion {unknown}; the criteria are {known}")
    values = _resolve(args)
    results = run_acceptance(only=only)
    if _out_given(values, args):
        out_dir = _out_dir(values, args)
        only_text = ",".join(map(str, only)) if only else "all"
        lines = [_header("verify", {"only": only_text}), "criterion,name,passed,details"]
        for r in results:
            detail = " | ".join(r.details).replace(",", ";")
            lines.append(f"{r.index},{r.name},{int(r.passed)},{detail}")
        (out_dir / "acceptance.csv").write_text("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 2


def cmd_stationary_compare(args) -> int:
    from .stationary import compare_long_run

    values = _resolve(args)
    params = _model(values)
    config = _sim_config(values)
    initial = _initial(values, params.n)
    out = _out_dir(values, args)
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
    params = _model(values)
    # --mu / --t replace a config file's mu= / t=, which replace the defaults.
    mus = getattr(args, "mu", None) or ([values["mu"]] if "mu" in values else [0.5, 1.0])
    t_probes = sorted(
        getattr(args, "t_probe", None) or ([values["t"]] if "t" in values else [0.5, 1.0, 2.0])
    )
    n_paths = values["paths"]
    if n_paths < 2:
        raise ConfigError(f"paths must be >= 2 for a Monte Carlo stderr, got {n_paths}")
    for mu in mus:
        if not mu >= 0.0:
            raise ConfigError(f"mu must be >= 0, got {mu:g}")
    sub_dt = values["dt"]
    if not sub_dt > 0.0:
        raise ConfigError(f"dt must be > 0, got {sub_dt}")
    for tp in t_probes:
        if grid_step(tp, sub_dt, "probe time") < 1:
            raise ConfigError(
                f"probe time t={tp:g} is not a positive multiple of dt={sub_dt:g}"
            )
    sum0 = float(_start(values, params.n).sum())
    out = _out_dir(values, args)
    # An exploding sum overflows to inf; that is reported below, not warned about.
    with np.errstate(over="ignore"):
        probes = integrated_sum_paths(
            params, sum0, n_paths, sub_dt, t_probes, rng_streams(values["seed"], 0)
        )
    for tp in t_probes:
        if not np.isfinite(probes[tp]).all():
            print(f"numerical failure: the integrated sum is not finite at t={tp:g}",
                  file=sys.stderr)
            return 3
    lines = [
        _header("laplace-check", _run_fields(values, _LAPLACE_FIELDS)),
        "mu,t,closed_form,mc_estimate,mc_stderr,z_score",
    ]
    zs = []
    for tp in t_probes:
        for mu in mus:
            query = integrated_laplace(params, sum0, mu, tp)
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
    values = _resolve(args)
    params = _model(values)
    config = _sim_config(values)
    initial = _initial(values, params.n)
    out = _out_dir(values, args)
    # --k replaces a config file's k=; with neither, every k is scanned.
    k = getattr(args, "k", None) or values.get("k")
    ks = [k] if k else list(range(1, params.n + 1))
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


_COMMANDS = {
    "simulate": cmd_simulate,
    "regime": cmd_regime,
    "phase-diagram": cmd_phase_diagram,
    "verify": cmd_verify,
    "stationary-compare": cmd_stationary_compare,
    "laplace-check": cmd_laplace_check,
    "collision-scan": cmd_collision_scan,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RegimeMismatch as exc:
        print(f"regime mismatch: {exc}", file=sys.stderr)
        return 1
    except NotEvaluable as exc:
        print(f"not evaluable: {exc}", file=sys.stderr)
        return 1
    except BadK as exc:
        print(f"bad k: {exc}", file=sys.stderr)
        return 1
    except TooFewSamples as exc:
        print(f"too few samples: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
