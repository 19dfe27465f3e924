"""Configuration-driven command line: run scenarios, validate configs.

Usage:
    triholonomy run <config.json> [--out DIR] [--threads N] [--seed N]
    triholonomy validate <config.json>
    triholonomy --version

Configs are JSON with a versioned schema::

    {
      "schema_version": 1,
      "scenario": "gate-synth",
      "seed": 0,
      "output_dir": "runs/gate",
      "params": { ... scenario-specific ... }
    }

Angles are radians and quantities SI throughout; complex matrix entries
serialise as [re, im] pairs; CSV floats carry 17 significant digits so a
round-trip is bit-stable.  Outputs are staged and moved into place only on
success, with a run manifest (config echo, version, checksums, timings)
written last; reruns with identical config and seed produce byte-identical
data files.

The seed is echoed into the manifest and drives the randomised property
sweeps (currently the optional gauge-rotation check of trace-sweep); all
other scenario outputs are seed-independent.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .connection import BlochField, ControlField
from .demonstrator import (
    PlatformParams,
    adiabatic_window,
    gate_budget,
    leakage_estimate,
    ramsey_echo,
)
from .errors import NumericalError, ValidationError
from .gates import (
    gate_fidelity,
    interaction_frame,
    make_ellipse_loop,
    synth_hadamard_gate,
    synth_phase_gate,
)
from .holonomy import (
    HolonomyLoop,
    dyson_trace,
    integrate_wilson,
    midpoint_grid,
    wilson_from_samples,
)
from .linking import LinkData, SpaceCurve, cs_phase, gauss_linking, hopf_pair
from .trimer import BondDrive, effective_momentum_series, phase_sweep, reconstruct_rotation

SCENARIOS = (
    "gate-synth",
    "trace-sweep",
    "trimer-sim",
    "phase-sweep",
    "linking",
    "demo-budget",
    "ramsey",
)
OUTDIR_ENV = "TRIHOLONOMY_OUTDIR"
SCHEMA_VERSION = 1
# CSV rows formatted per string operation; bounds the text held in memory.
_CSV_BLOCK_ROWS = 1024


def _complex_pairs(matrix: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Columns as float rows; "%.17g" writes the bytes of ``format(float(x), ".17g")``."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([col[i : i + _CSV_BLOCK_ROWS] for col in columns])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class ConfigError(ValidationError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version (expected {SCHEMA_VERSION})")
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}")
    if not isinstance(cfg.get("params", {}), dict):
        raise ConfigError("params must be an object")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    return cfg


_REQUIRED = object()


def _need(params: dict, key: str, kind, where: str, default=_REQUIRED, positive: bool = False):
    """``params[key]`` checked against ``kind``, or ``default`` when absent.

    ``bool`` passes neither as ``int`` nor as ``float``; an ``int`` passes as
    a ``float``, and either must fit a 64-bit integer; a ``float`` must be
    finite.  ``[kind]`` asks for a JSON array whose items are ``kind``.
    ``positive`` requires every given number to be > 0.
    """
    if key not in params:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required parameter {key!r}")
        return default
    value = params[key]
    if isinstance(kind, list) and isinstance(value, list):
        return [_need({key: item}, key, kind[0], where, positive=positive) for item in value]
    if type(value) is int and not -(2**63) <= value < 2**63:
        raise ConfigError(f"{where}: parameter {key!r} is out of range")
    if kind is float and type(value) is int:
        value = float(value)
    wrong = isinstance(kind, list) or not isinstance(value, kind)
    if wrong or (type(value) is bool and kind is not bool):
        raise ConfigError(f"{where}: parameter {key!r} has wrong type")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: parameter {key!r} is not finite")
    if positive and not value > 0:
        raise ConfigError(f"{where}: parameter {key!r} must be positive")
    return value


def _masses(params: dict, where: str) -> list[float]:
    masses = _need(params, "masses", [float], where, [2.1, 2.1, 4.7], positive=True)
    if len(masses) != 3:
        raise ConfigError(f"{where}: parameter 'masses' needs three values")
    return masses


def _drive_from(params: dict, where: str, phi13=None, phi23=None) -> BondDrive:
    d = params.get("drive", params)
    return BondDrive(
        d12=_need(d, "d12", float, where),
        a12=_need(d, "a12", float, where),
        omega12=_need(d, "omega12", float, where),
        d=_need(d, "d", float, where),
        a=_need(d, "a", float, where),
        omega=_need(d, "omega", float, where),
        phi13=_need(d, "phi13", float, where, 0.0) if phi13 is None else phi13,
        phi23=_need(d, "phi23", float, where, 0.0) if phi23 is None else phi23,
    )


def _platform_from(params: dict) -> PlatformParams:
    fields = {}
    allowed = (
        "e_a",
        "e_e1",
        "e_e2",
        "t_loop",
        "tau_r",
        "r0",
        "epsilon",
        "phi",
        "n_rep",
        "charge",
    )
    src = params.get("platform", {})
    if not isinstance(src, dict):
        raise ConfigError("platform must be an object")
    for key in src:
        if key not in allowed:
            raise ConfigError(f"unknown platform field {key!r}")
        fields[key] = src[key]
    return PlatformParams(**fields)


# ---------------------------------------------------------------- scenarios


def _run_gate_synth(params: dict, outdir: str) -> list[str]:
    q = _need(params, "q", float, "gate-synth")
    target = params.get("target", "pi2")
    if target not in ("pi2", "hadamard"):
        raise ConfigError("gate-synth target must be 'pi2' or 'hadamard'")
    samples = int(params.get("samples", 1024))
    steps = int(params.get("steps", 4096))
    if target == "pi2":
        spec = synth_phase_gate(q, params.get("n_rep"), n_samples=samples, steps=steps)
        realised = spec.integrate()
    else:
        spec = synth_hadamard_gate(q, n_samples=samples, steps=steps)
        realised = interaction_frame(spec.loop).integrate_transverse().matrix
    payload = {
        "target": target,
        "q": q,
        "repetitions": spec.repetitions,
        "matrix": _complex_pairs(realised),
        "target_matrix": _complex_pairs(spec.target),
        "fidelity": gate_fidelity(spec.target, realised),
        "residual_abelian": _complex_pairs(spec.residual_abelian),
        "calibrated_control": spec.calibrated_control,
    }
    path = os.path.join(outdir, "gate.json")
    _write_json(path, payload)
    return [path]


def _run_trace_sweep(params: dict, outdir: str, seed: int) -> list[str]:
    q = _need(params, "q", float, "trace-sweep", 2.0)
    a = float(params.get("a", 0.2))
    b = float(params.get("b", 0.2))
    theta0 = float(params.get("theta0", math.pi / 2))
    steps = int(params.get("steps", 8192))
    psi_values = params.get("psi_values", [0.025, 0.05, 0.1])
    loop_shape = make_ellipse_loop(theta0, 0.0, a, b, int(params.get("samples", 1024)))
    cols = {k: [] for k in ("psi_abs", "trace_direct", "trace_order2", "trace_order4", "i2", "i4")}
    for psi_abs in psi_values:
        hloop = HolonomyLoop(
            loop_shape, BlochField.pinned(), ControlField.constant(float(psi_abs)), q, steps
        )
        direct = integrate_wilson(hloop).trace
        d2 = dyson_trace(hloop, 2)
        d4 = dyson_trace(hloop, 4)
        cols["psi_abs"].append(float(psi_abs))
        cols["trace_direct"].append(direct)
        cols["trace_order2"].append(d2.trace_estimate)
        cols["trace_order4"].append(d4.trace_estimate)
        cols["i2"].append(d4.corrections[0])
        cols["i4"].append(d4.corrections[1])
    path = os.path.join(outdir, "trace_sweep.csv")
    _write_csv(path, list(cols), [np.asarray(v) for v in cols.values()])
    produced = [path]

    rotations = int(params.get("gauge_rotations", 0))
    if rotations > 0:
        produced.append(_gauge_check(params, loop_shape, q, seed, rotations, outdir))
    return produced


def _gauge_check(
    params: dict, loop_shape, q: float, seed: int, rotations: int, outdir: str
) -> str:
    """Seeded random gauge rotations of the loop's (A, psi) data at unit weight."""
    psi_abs = float(params.get("psi_values", [0.05])[0])
    s, _ = midpoint_grid(int(params.get("steps", 8192)))
    a = HolonomyLoop(loop_shape).sample(s).a
    base = wilson_from_samples(a, np.full(s.size, psi_abs), 1.0).trace
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(rotations):
        coef = rng.normal(size=3) * 0.25
        alpha = coef[0] * np.sin(s) + coef[1] * (np.cos(s) - 1) + coef[2] * np.sin(2 * s)
        dalpha = coef[0] * np.cos(s) - coef[1] * np.sin(s) + 2 * coef[2] * np.cos(2 * s)
        rotated = wilson_from_samples(a + dalpha, np.exp(1j * alpha) * psi_abs, 1.0).trace
        worst = max(worst, abs(rotated - base))
    path = os.path.join(outdir, "gauge_check.json")
    _write_json(
        path,
        {"seed": seed, "rotations": rotations, "worst_trace_shift": worst, "base_trace": base},
    )
    return path


def _run_trimer_sim(params: dict, outdir: str) -> list[str]:
    drive = _drive_from(params, "trimer-sim")
    masses = _masses(params, "trimer-sim")
    periods = _need(params, "periods", int, "trimer-sim", 20, positive=True)
    period = drive.common_period()
    dt = period / _need(params, "steps_per_period", int, "trimer-sim", 1536, positive=True)
    traj = reconstruct_rotation(drive, masses, periods * period, dt)
    from .trimer import bond_lengths

    xi12, xi13, xi23 = bond_lengths(traj.times, drive)
    starts, values = effective_momentum_series(traj, period)
    l_eff = np.interp(traj.times, starts, values, left=values[0], right=values[-1])
    path = os.path.join(outdir, "trimer_sim.csv")
    _write_csv(
        path,
        ["t", "xi12", "xi13", "xi23", "theta", "L_eff"],
        [traj.times, xi12, xi13, xi23, traj.theta, l_eff],
    )
    return [path]


def _run_phase_sweep(params: dict, outdir: str, threads: int) -> list[str]:
    drive = _drive_from(params, "phase-sweep", phi13=0.0, phi23=0.0)
    masses = _masses(params, "phase-sweep")
    if "phi_values" in params:
        grid = np.asarray(_need(params, "phi_values", [float], "phase-sweep"), dtype=float)
    else:
        count = _need(params, "phi_count", int, "phase-sweep", 33, positive=True)
        grid = np.linspace(-math.pi, math.pi, count)
    periods = _need(params, "periods", int, "phase-sweep", 8, positive=True)
    rates = phase_sweep(drive, masses, grid, periods=periods, workers=threads)
    path = os.path.join(outdir, "phase_sweep.csv")
    _write_csv(path, ["phi", "mean_angular_velocity"], [grid, rates])
    return [path]


def _load_curve_csv(path: str) -> SpaceCurve:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read curve file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise ConfigError(f"curve file {path} must have three columns (x, y, z)")
    return SpaceCurve(data)


def _curve_paths(params: dict, base_dir: str) -> list[str]:
    """``curve_files`` with relative entries resolved against the config's directory."""
    return [os.path.join(base_dir, p) for p in _need(params, "curve_files", [str], "linking")]


def _run_linking(params: dict, outdir: str, base_dir: str) -> list[str]:
    if "curve_files" in params:
        curves = [_load_curve_csv(p) for p in _curve_paths(params, base_dir)]
    else:
        hopf = _need(params, "hopf", dict, "linking", {})
        curves = list(
            hopf_pair(
                _need(hopf, "radius1", float, "linking", 1.0),
                _need(hopf, "radius2", float, "linking", 1.0),
                _need(hopf, "segments", int, "linking", 512),
            )
        )
    n = len(curves)
    if n < 2:
        raise ConfigError("linking scenario needs at least two curves")
    charges = _need(params, "charges", [float], "linking", [1.0] * n)
    k = _need(params, "k", int, "linking", 4)
    slk = _need(params, "slk", [int], "linking", [0] * n)
    lk = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            lk[i, j] = lk[j, i] = gauss_linking(curves[i], curves[j])
    link = LinkData(lk, slk)
    payload = {
        "lk_matrix": lk.tolist(),
        "charges": charges,
        "level": k,
        "slk": slk,
        "cs_phase": cs_phase(charges, link, k),
    }
    path = os.path.join(outdir, "linking.json")
    _write_json(path, payload)
    return [path]


def _run_demo_budget(params: dict, outdir: str) -> list[str]:
    platform = _platform_from(params)
    factor = float(params.get("window_factor", 10.0))
    report = adiabatic_window(platform, factor)
    budget = gate_budget(platform, float(params.get("contingency", 1.0)))
    payload = {
        "window": {
            "passed": report.passed,
            "gap_rad_per_s": report.gap,
            "splitting_rad_per_s": report.splitting,
            "ratio_lower": report.ratio_lower,
            "ratio_upper": report.ratio_upper,
            "factor": report.factor,
        },
        "per_loop_leakage": leakage_estimate(platform),
        "budget": {
            "p_leak": budget.p_leak,
            "p_decay": budget.p_decay,
            "phase_drift_rad": budget.phase_drift,
            "total_infidelity_estimate": budget.total_infidelity_estimate,
        },
    }
    path = os.path.join(outdir, "budget.json")
    _write_json(path, payload)
    return [path]


def _run_ramsey(params: dict, outdir: str) -> list[str]:
    platform = _platform_from(params)
    q = _need(params, "q", float, "ramsey", platform.charge)
    spec = synth_phase_gate(q, n_samples=int(params.get("samples", 1024)),
                            steps=int(params.get("steps", 4096)))
    delta_e = float(params.get("delta_e", platform.splitting))
    result = ramsey_echo(
        spec.loop, delta_e, platform,
        echo=bool(params.get("echo", True)),
        scan_count=int(params.get("scan_count", 8)),
    )
    csv_path = os.path.join(outdir, "fringe.csv")
    cols = [result.scan_phases] + [result.populations[i] for i in range(len(result.prep_phases))]
    headers = ["scan_phase"] + [f"population_prep{i}" for i in range(len(result.prep_phases))]
    _write_csv(csv_path, headers, cols)
    json_path = os.path.join(outdir, "ramsey.json")

    def _maybe(x: float):
        return x if math.isfinite(x) else None

    _write_json(
        json_path,
        {
            "echo": result.echo,
            "delta_e_rad_per_s": delta_e,
            "doubled_phase": _maybe(result.doubled_phase),
            "geometric_phase": _maybe(result.geometric_phase),
            "reconstructed_trace": _maybe(result.reconstructed_trace),
            "contrast": result.contrast,
            "prep_phases": list(result.prep_phases),
        },
    )
    return [csv_path, json_path]


def run_scenario(cfg: dict, outdir: str, threads: int, base_dir: str) -> list[str]:
    """Run a loaded config; ``base_dir`` (the config's directory) anchors relative paths."""
    scenario = cfg["scenario"]
    params = cfg.get("params", {})
    if scenario == "gate-synth":
        return _run_gate_synth(params, outdir)
    if scenario == "trace-sweep":
        return _run_trace_sweep(params, outdir, int(cfg.get("seed", 0)))
    if scenario == "trimer-sim":
        return _run_trimer_sim(params, outdir)
    if scenario == "phase-sweep":
        return _run_phase_sweep(params, outdir, threads)
    if scenario == "linking":
        return _run_linking(params, outdir, base_dir)
    if scenario == "demo-budget":
        return _run_demo_budget(params, outdir)
    if scenario == "ramsey":
        return _run_ramsey(params, outdir)
    raise ConfigError(f"unknown scenario {scenario!r}")


def validate_config(cfg: dict, base_dir: str) -> list[str]:
    """Schema plus physics checks; returns report lines (no outputs written)."""
    lines = [f"scenario: {cfg['scenario']}"]
    params = cfg.get("params", {})
    scenario = cfg["scenario"]
    if scenario in ("trimer-sim", "phase-sweep"):
        drive = _drive_from(params, scenario)  # validates amplitude bounds
        period = drive.common_period()
        lines.append(f"drive ok: common period {period:.6g}")
    if scenario in ("demo-budget", "ramsey"):
        platform = _platform_from(params)  # validates epsilon bound
        report = adiabatic_window(platform, float(params.get("window_factor", 10.0)))
        lines.append(
            "adiabatic window "
            + ("pass" if report.passed else "FAIL")
            + f": (1/T)/splitting = {report.ratio_lower:.3g}, gap*T = {report.ratio_upper:.3g}"
        )
        if not report.passed:
            raise ValidationError(
                "adiabatic window violated: need splitting << 1/T_loop << gap "
                f"with factor {report.factor:g} "
                f"(got ratios {report.ratio_lower:.3g} and {report.ratio_upper:.3g})"
            )
    if scenario == "linking" and "curve_files" in params:
        for path in _curve_paths(params, base_dir):
            if not os.path.exists(path):
                raise ConfigError(f"referenced curve file does not exist: {path}")
        lines.append(f"{len(params['curve_files'])} curve files present")
    if scenario == "gate-synth":
        q = _need(params, "q", float, "gate-synth")
        if q <= 0:
            raise ConfigError("gate-synth: q must be positive")
        lines.append(f"gate-synth ok: q = {q:g}")
    lines.append("pass")
    return lines


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_dir(config_path: str) -> str:
    return os.path.dirname(os.path.abspath(config_path))


def _cmd_run(args) -> int:
    t_start = time.perf_counter()
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    outdir = args.out or cfg.get("output_dir") or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=outdir)
    try:
        produced = run_scenario(cfg, staging, max(1, args.threads), _config_dir(args.config))
        manifest = {
            "artifact_version": __version__,
            "config": cfg,
            "seed": cfg.get("seed", 0),
            "outputs": {os.path.basename(p): _sha256(p) for p in produced},
            "wall_seconds": time.perf_counter() - t_start,
        }
        manifest_path = os.path.join(staging, "run_manifest.json")
        _write_json(manifest_path, manifest)
        for path in produced + [manifest_path]:
            os.replace(path, os.path.join(outdir, os.path.basename(path)))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"wrote {len(produced)} output file(s) + manifest to {outdir}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    for line in validate_config(cfg, _config_dir(args.config)):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triholonomy",
        description="Shape-sphere holonomy scenarios: gates, trimer dynamics, demonstrator estimates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config and write outputs")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--out", help="output directory (overrides config and environment)")
    run_p.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.set_defaults(func=_cmd_run)
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a JSON scenario config")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:  # includes ConfigError
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
