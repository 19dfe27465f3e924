"""Configuration-driven command line: run scenarios, validate configs.

Usage:
    triholonomy run <config.json> [--out DIR] [--threads N]
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
round-trip is bit-stable.  Each output is written once into the output
directory as a partial file and renamed into place only on success, the run
manifest (config echo, version, checksums of the bytes written, timings) last;
a failure removes the partial files.  Reruns give byte-identical data files.

:func:`load_config` reads the root through the table ``_ROOT``, so an unknown
root key exits 2.  Each ``SCENARIOS`` entry is ``(table, scenario)``.  ``run``
and ``validate`` take one path, :func:`run_scenario`: its table reads the
parameters (JSON kind, default, bound), then the scenario checks the physics,
computes, and returns its report lines and its outputs as data.  ``validate``
prints the lines and writes nothing; ``run`` writes the outputs through one
writer.  So ``validate`` exits 0, 2 or 3 exactly when ``run`` does, but for an
unusable output directory or running out of memory in the writes.

The seed is echoed into the manifest and drives the randomised property
sweeps (currently the optional gauge-rotation check of trace-sweep); all
other scenario outputs are seed-independent.

Exit codes: 0 success, 2 validation error or out of memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import MISSING, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .connection import eigenframe_rate_samples
from .demonstrator import (
    SCANS,
    PlatformParams,
    WindowReport,
    adiabatic_window,
    gate_budget,
    leakage_estimate,
    ramsey_echo,
)
from .errors import FINITE, MAX_SAMPLES, POSITIVE, NumericalError, ValidationError, check, count
from .gates import (
    SAMPLES,
    gate_fidelity,
    make_ellipse_loop,
    synth_hadamard_gate,
    synth_phase_gate,
)
from .holonomy import (  # integrate_wilson: perfbench/test_perfbench.py reads cli's binding
    STEPS,
    HolonomyLoop,
    TraceExpansion,
    integrate_wilson,
    midpoint_grid,
    trace_expansion_from_rates,
    wilson_from_samples,
)
from .linking import LEVEL, SEGMENTS, LinkData, SpaceCurve, cs_phase, gauss_linking, hopf_pair
from .trimer import (MASSES, BondDrive, _sweep_grid, bond_lengths, effective_momentum_series, phase_sweep,
                     reconstruct_rotation)

OUTDIR_ENV = "TRIHOLONOMY_OUTDIR"
SCHEMA_VERSION = 1
# CSV rows formatted per string operation; bounds the text held in memory.  _g17_slots costs about 0.1 ms a
# call plus, on trimer-sim's three non-repeating columns, 95 ns a cell at 3072 cells, 124 ns at 12 288 and
# 151 ns at 24 576 (2 vCPUs): 4096 rows write the 98 305-row trimer-sim file faster than 1024 or 8192.
_CSV_BLOCK_ROWS = 4096
# _g17_slots sends fewer values to "%" whole: the digit path's fixed cost (~0.1 ms) loses below it.
_CSV_FAST_MIN_CELLS = 256
_DEKKER = 134217729.0  # 2**27 + 1 splits a double into two halves whose products are exact
_TIE_GAP = 2.0**-30  # a product this close to a rounding tie goes to "%"; the product errs by < 1e-12
_G17_RANGE = (1e-250, 1e250)  # |x| the digit path takes; 10**(16 - E) stays a normal double
_POW10_MIN = -235  # the 10**k table spans k in [-235, 270), what that range needs


def _complex_pairs(matrix: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex matrix."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def _dekker_split(a):
    hi = _DEKKER * a
    hi -= hi - a
    return hi, a - hi


def _divmod(a, b: int):
    q = a // b  # np.divmod of int64 by a constant is several times slower
    return q, a - q * b


@functools.cache
def _g17_tables() -> tuple:
    """10**k as the double-double hi + lo (hi also Dekker-split), the digit limbs and the exponent tails.

    hi is the correctly rounded 10**k and lo the correctly rounded residual,
    both from exact integer arithmetic.  Limb entry L is L's four "%04d"
    bytes with trailing '0' bytes as NUL (entry 0 is all NUL); entry
    10000 + L keeps them, for a limb followed by a nonzero one.  Tail row
    E + 300 is "e%+03d" % E, NUL-padded to five bytes.
    """
    hi, lo = [], []
    for k in range(_POW10_MIN, 270):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(num / den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    q = np.arange(10000)
    text = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8) + 48
    zeros = np.cumprod(text[:, ::-1] == 48, axis=1)[:, ::-1].astype(bool)  # the trailing '0' bytes
    limbs = np.concatenate([np.where(zeros, 0, text), text]).view(np.uint32).ravel()
    tails = np.array([b"e%+03d" % e for e in range(-300, 300)], "S5").view(np.uint8).reshape(-1, 5)
    return (hi, *_dekker_split(hi), np.array(lo)), limbs, tails


def _round17(a, e, pow10):
    """|x| * 10**(16 - e) rounded to the int64 D, and the rounding's remainder in [-0.5, 0.5]."""
    k = 16 - _POW10_MIN - e
    p_hi, p_split_hi, p_split_lo, p_lo = (table[k] for table in pow10)
    a_hi, a_lo = _dekker_split(a)
    p = a * p_hi
    # Dekker's exact error of p, then |x| times the residual of 10**k
    err = ((a_hi * p_split_hi - p) + a_hi * p_split_lo + a_lo * p_split_hi) + a_lo * p_split_lo + a * p_lo
    hi = p + err  # hi + lo is the double-double product; hi is an integer above 2**53
    lo = err - (hi - p)
    q = np.rint(lo)
    return hi.astype(np.int64) + q.astype(np.int64), lo - q


def _g17_digits(a):
    """The cells of ``a`` (|x| values) that the digit path decides, and their digits: (idx, D, E).

    |x| rounds half-even to D * 10**(E - 16), D an int64 in [1e16, 1e17).  The
    path takes |x| in ``_G17_RANGE`` only, and leaves out a product
    |x| * 10**(16 - E) within ``_TIE_GAP`` of a tie.  The biased log10 never
    overshoots E, so only a product at or above 1e17 is redone, with E + 1.
    """
    idx = np.flatnonzero((a >= _G17_RANGE[0]) & (a < _G17_RANGE[1]))
    if idx.size < a.size:
        a = a[idx]
    pow10 = _g17_tables()[0]
    e = np.floor(np.log10(a) - 1e-9).astype(np.int64)
    d, rem = _round17(a, e, pow10)
    low = np.flatnonzero(d > 10**17)
    if low.size:
        e[low] += 1
        d[low], rem[low] = _round17(a[low], e[low], pow10)
    top = d == 10**17  # rounded up to the next power of ten
    d[top] = 10**16
    e[top] += 1
    decided = np.abs(rem) < 0.5 - _TIE_GAP
    if not decided.all():
        idx, d, e = idx[decided], d[decided], e[decided]
    return idx, d, e


def _g17_slots(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each value v of the float vector ``x`` as (x.size, 25) NUL-padded byte slots.

    A slot holds the sign, at most 23 bytes of text and a NUL last byte, where
    ``_write_csv`` puts the separator.  The digit path fills the slots grouped
    by layout (one per fixed-notation exponent, one for e-notation); "%" fills
    the cells it leaves (0, non-finite, |x| outside ``_G17_RANGE``, near a
    rounding tie) in one batch, and fewer than ``_CSV_FAST_MIN_CELLS`` values
    whole.  The temporaries grow with ``x``, so ``_write_csv`` passes at most
    ``_CSV_BLOCK_ROWS`` rows (see its comment for the measured cost per cell).
    """
    buf = np.empty((x.size, 25), np.uint8)
    slow = np.ones(x.size, bool)
    if x.size >= _CSV_FAST_MIN_CELLS:
        idx, d, e = _g17_digits(np.abs(x))
        layout = np.clip(e, -5, 17).astype(np.int16)  # %g's fixed notation in [-4, 16], e-notation outside
        order = np.argsort(layout, kind="stable")  # a radix sort
        d, e, layout = d[order], e[order], layout[order]
        # D = d0 * 10**16 + four base-10**4 limbs; a limb followed by a nonzero one keeps its trailing zeros
        hi9, lo8 = _divmod(d, 10**8)
        hi5, l2 = _divmod(hi9, 10**4)
        d0, l1 = _divmod(hi5, 10**4)
        l3, l4 = _divmod(lo8, 10**4)
        limbs, tails = _g17_tables()[1:]
        digits = np.empty((len(d), 5), np.uint32)
        digits[:, 0] = limbs[d0 + 10000]
        digits[:, 4] = limbs[l4]
        digits[:, 3] = limbs[l3 + 10000 * (l4 != 0)]
        digits[:, 2] = limbs[l2 + 10000 * (lo8 != 0)]
        digits[:, 1] = limbs[l1 + 10000 * ((l2 != 0) | (lo8 != 0))]
        s = digits.view(np.uint8)[:, 3:]  # the 17 digits, trailing zeros as NUL
        cells = np.zeros((len(d), 25), np.uint8)  # sign, at most 23 bytes of text, separator
        starts = np.flatnonzero(np.diff(layout, prepend=layout[:1] - 1))  # where each layout's run begins
        for lo, hi in itertools.pairwise([*starts, len(d)]):
            p, g, out = int(layout[lo]), s[lo:hi], cells[lo:hi]
            if 0 <= p <= 16:  # d.ddd with the integer part's zeros kept
                np.maximum(g[:, : p + 1], 48, out=out[:, 1 : p + 2])
                if p < 16:
                    out[:, p + 2] = (g[:, p + 1] != 0) * 46
                    out[:, p + 3 : 19] = g[:, p + 1 :]
            elif -4 <= p < 0:  # 0.000ddd
                out[:, 1 : 2 - p] = np.frombuffer(b"0." + b"0" * (-1 - p), np.uint8)
                out[:, 2 - p : 19 - p] = g
            else:
                out[:, 1] = g[:, 0]
                out[:, 2] = (g[:, 1] != 0) * 46
                out[:, 3:19] = g[:, 1:]
                out[:, 19:24] = tails[e[lo:hi] + 300]
        buf.view("V25")[idx[order], 0] = cells.view("V25")[:, 0]
        buf[:, 0] = (x < 0).view(np.uint8) * 45
        slow[idx] = False
    slow = np.flatnonzero(slow)
    if slow.size:
        text = ("%-25.17g" * slow.size % tuple(x[slow].tolist())).encode().replace(b" ", b"\0")  # the padding
        buf[slow] = np.frombuffer(text, np.uint8).reshape(-1, 25)
    return buf


def _write_new(path: str, chunks) -> str:
    """Write byte chunks to a file that must not exist yet; returns the sha256 hex digest of its bytes."""
    digest = hashlib.sha256()
    with open(path, "xb") as fh:
        for data in chunks:
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> str:
    """Columns as "%.17g" rows in a new file; returns its sha256 hex digest.

    The file has as many rows as its longest column; a shorter column of L rows is one period, and row k
    reads its row k mod L.  The floats are the exact bytes of ``"%.17g" % x`` from ``_g17_slots``, one call
    per block of ``_CSV_BLOCK_ROWS`` rows, blocked here only.  The L rows of a period are formatted once, in
    blocks batched across the columns of that L, and each block gathers its rows from them.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    n, size = max(map(len, columns)), _CSV_BLOCK_ROWS
    new = [j for j, col in enumerate(columns) if len(col) == n]

    def slots(js: list[int], first: int, rows: int) -> np.ndarray:
        cells = np.array([columns[j][first : first + rows] for j in js]).T.ravel()  # row by row
        return _g17_slots(cells).reshape(rows, len(js), 25)

    texts = {}  # L -> (its columns, their text of rows [0, L))
    for k in dict.fromkeys(len(col) for col in columns if len(col) < n):
        js = [j for j, col in enumerate(columns) if len(col) == k]
        text = np.empty((k, len(js), 25), np.uint8)
        for first in range(0, k, size):
            text[first : first + size] = slots(js, first, min(size, k - first))
        texts[k] = js, text

    def block(first: int) -> bytes:
        rows = min(size, n - first)
        buf = np.empty((rows, len(columns), 25), np.uint8)
        buf[:, new] = slots(new, first, rows)
        for k, (js, text) in texts.items():
            buf[:, js] = text[np.arange(first, first + rows) % k]
        buf[:, :, 24] = [44] * (len(columns) - 1) + [10]
        return buf.tobytes().translate(None, b"\0")

    blocks = map(block, range(0, n, size))
    return _write_new(path, itertools.chain([(",".join(header) + "\n").encode()], blocks))


def _write_json(path: str, payload: dict) -> str:
    """``payload`` as indented JSON in a new file; returns the sha256 hex digest of the bytes written."""
    return _write_new(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


_REQUIRED = object()


class _Param(NamedTuple):
    """One config parameter: its JSON kind, its default and its bound.

    ``kind`` is ``bool``, ``int``, ``float``, ``str``, ``dict`` (a JSON object that
    its reader checks later), ``[kind]`` (a JSON array) or a nested table (a JSON
    object).  ``bool`` is neither ``int`` nor ``float``; an ``int`` passes as a
    ``float``; either must fit int64 and a ``float`` must be finite.  ``default`` is ``_REQUIRED`` for a parameter
    that must be given, ``None`` where the scenario derives it.  ``bound`` is a
    ``(test, phrase)`` pair that a given value must pass.  Where the library checks the same value, the
    table holds the library's bound object, so each bound is declared once.
    """

    kind: object
    default: object = _REQUIRED
    bound: tuple | None = None


_NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
_COUNT = count(1)  # the counts that no library call checks: periods, steps per period and phases
_NON_EMPTY = (lambda v: len(v) > 0, "a non-empty array")


def _table_of(cls) -> dict:
    """Table of a parameter dataclass's fields: float, or int where the default is an int; each field's bound."""
    return {
        f.name: _Param(float, bound=f.metadata["bound"]) if f.default is MISSING
        else _Param(type(f.default), f.default, f.metadata["bound"])
        for f in fields(cls)
    }


def _check(value, param: _Param, key: str, where: str):
    """``value`` of parameter ``key`` checked against ``param``'s kind and bound."""
    kind = param.kind
    if isinstance(kind, list) and isinstance(value, list):
        value = [_check(item, _Param(kind[0]), key, where) for item in value]
    elif isinstance(kind, dict) and isinstance(value, dict):
        value = _read(kind, value, f"{where} {key}")
    else:
        if type(value) is int and not -(2**63) <= value < 2**63:
            raise ValidationError(f"{where}: parameter {key!r} is out of range")
        if kind is float and type(value) is int:
            value = float(value)
        wrong = isinstance(kind, (list, dict)) or not isinstance(value, kind)
        if wrong or isinstance(value, bool) != (kind is bool):
            raise ValidationError(f"{where}: parameter {key!r} has wrong type")
        if kind is float:
            check(f"{where}: parameter {key!r}", value, FINITE)
    return check(f"{where}: parameter {key!r}", value, param.bound) if param.bound else value


def _read(table: dict, params: dict, where: str) -> dict:
    """Checked value of every ``table`` entry: given in ``params``, else its default."""
    for key in params:
        if key not in table:
            raise ValidationError(f"{where}: unknown parameter {key!r}")
    values = {}
    for key, param in table.items():
        if key in params:
            values[key] = _check(params[key], param, key, where)
        elif param.default is _REQUIRED:
            raise ValidationError(f"{where}: missing required parameter {key!r}")
        elif isinstance(param.kind, dict):
            values[key] = _read(param.kind, param.default, f"{where} {key}")
        else:
            values[key] = param.default
    return values


def load_config(path: str) -> dict:
    """The config at ``path``, its root read through ``_ROOT``."""
    try:
        with open(path, "rb") as fh:
            cfg = json.loads(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, bad UTF-8 or an overlong integer
        raise ValidationError(f"malformed JSON config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return _read(_ROOT, cfg, "config")


# ---------------------------------------------------------------- scenarios


def _gate_synth(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """The pi/2 gate of at most ``gates.REPETITIONS`` loops, or the Hadamard gate steered on its one loop."""
    if p["target"] == "hadamard":
        spec = synth_hadamard_gate(p["q"], n_samples=p["samples"], steps=p["steps"])
        realised = spec.transverse.matrix
    else:
        spec = synth_phase_gate(p["q"], n_samples=p["samples"], steps=p["steps"])
        realised = spec.integrate()
    return [], {"gate.json": {
        "target": p["target"],
        "q": p["q"],
        "repetitions": spec.repetitions,
        "matrix": _complex_pairs(realised),
        "target_matrix": _complex_pairs(spec.target),
        "fidelity": gate_fidelity(spec.target, realised),
        "residual_abelian": _complex_pairs(spec.residual_abelian),
        "calibrated_control": spec.calibrated_control,
    }}


def _trace_sweep(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """Per |psi| the direct trace, order-2 and order-4 estimates, I2 and I4; the seeded gauge check if asked.
    The transports of (psi count + gauge rotations + 1) x steps samples are refused over ``MAX_SAMPLES`` first."""
    psi_count, rotations, steps = len(p["psi_values"]), p["gauge_rotations"], p["steps"]
    if (psi_count + rotations + 1) * steps > MAX_SAMPLES:
        raise ValidationError(f"trace sweep of ({psi_count} psi_values + {rotations} gauge_rotations + 1) x "
                              f"{steps} steps exceeds the budget of {MAX_SAMPLES} samples; lower 'steps' or "
                              "'gauge_rotations', or list fewer 'psi_values'")
    shape = make_ellipse_loop(p["theta0"], p["a"], p["b"], p["samples"])
    s_mid = midpoint_grid(p["steps"])[0]
    base = HolonomyLoop(shape, charge=p["q"], steps=p["steps"]).sample(s_mid)
    rows = []
    for psi_abs in p["psi_values"]:
        psi = np.full(s_mid.size, complex(psi_abs))
        direct = wilson_from_samples(base.a, psi, p["q"]).trace
        c, j = eigenframe_rate_samples(base._replace(psi=psi), p["q"])
        d4 = trace_expansion_from_rates(c, j, 4)  # its I2 gives the order-2 estimate exactly
        d2 = TraceExpansion(d4.abelian_angle, d4.corrections[:1])
        rows.append((psi_abs, direct, d2.trace_estimate, d4.trace_estimate, *d4.corrections))
    header = ["psi_abs", "trace_direct", "trace_order2", "trace_order4", "i2", "i4"]
    outputs = {"trace_sweep.csv": (header, [np.asarray(col) for col in zip(*rows)])}
    if rotations:
        outputs["gauge_check.json"] = _gauge_check(s_mid, base.a, p["psi_values"][0], rotations, seed)
    return [], outputs


def _gauge_check(s: np.ndarray, a: np.ndarray, psi_abs: float, rotations: int, seed: int) -> dict:
    """Seeded random gauge rotations of the loop's (A, psi) data at midpoints ``s``, at unit weight."""
    base = wilson_from_samples(a, np.full(s.size, psi_abs), 1.0).trace
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(rotations):
        coef = rng.normal(size=3) * 0.25
        alpha = coef[0] * np.sin(s) + coef[1] * (np.cos(s) - 1) + coef[2] * np.sin(2 * s)
        dalpha = coef[0] * np.cos(s) - coef[1] * np.sin(s) + 2 * coef[2] * np.cos(2 * s)
        rotated = wilson_from_samples(a + dalpha, np.exp(1j * alpha) * psi_abs, 1.0).trace
        worst = max(worst, abs(rotated - base))
    return {"seed": seed, "rotations": rotations, "worst_trace_shift": worst, "base_trace": base}


def _drive(p: dict) -> tuple[BondDrive, float, list[str]]:
    """``drive`` as a ``BondDrive``, its common period and the report line."""
    drive = BondDrive(**p["drive"])
    period = drive.common_period()
    return drive, period, [f"drive ok: common period {period:.6g}"]


def _trimer_sim(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """t, the bonds the frames were built from (their n_P rows of one period), theta and L_eff."""
    drive, period, lines = _drive(p)
    traj = reconstruct_rotation(drive, p["masses"], p["periods"] * period, period / p["steps_per_period"])
    bonds = bond_lengths(traj.times[: traj.period_steps], drive)
    l_eff = np.interp(traj.times, *effective_momentum_series(traj, period))
    header = ["t", "xi12", "xi13", "xi23", "theta", "L_eff"]
    return lines, {"trimer_sim.csv": (header, [traj.times, *bonds, traj.theta, l_eff])}


def _phase_sweep(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """The mean rate at each of phi_count phases on [-pi, pi], within the sample budget of
    :func:`phase_sweep`; a failed phase names its phi."""
    drive, _, lines = _drive(p)
    _sweep_grid(drive, p["phi_count"])  # the budget, before the grid is built
    grid = np.linspace(-math.pi, math.pi, p["phi_count"])
    rates = phase_sweep(drive, p["masses"], grid)
    return lines, {"phase_sweep.csv": (["phi", "mean_angular_velocity"], [grid, rates])}


def _linking(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """The linking matrix of the Hopf pair or of the curve files read against ``base_dir``, one charge and
    slk each (1.0 and 0 unless given), and their ``cs_phase``."""
    if p["curve_files"] is None:
        curves = list(hopf_pair(p["hopf"]["radius1"], p["hopf"]["radius2"], p["hopf"]["segments"]))
    else:
        curves = []
        for path in (os.path.join(base_dir, name) for name in p["curve_files"]):
            try:
                with open(path) as fh:
                    rows = fh.read().partition("\n")[2]  # below the header line
                data = np.loadtxt(rows.split("\n"), delimiter=",") if rows.strip() else None
            except (OSError, ValueError) as exc:
                raise ValidationError(f"cannot read curve file {path}: {exc}") from exc
            if data is None:
                raise ValidationError(f"curve file {path} has no data row below its header")
            if data.ndim != 2 or data.shape[1] != 3:
                raise ValidationError(f"curve file {path} must have three columns (x, y, z)")
            curves.append(SpaceCurve(data))
    n = len(curves)
    for key in ("charges", "slk"):
        if p[key] is not None and len(p[key]) != n:
            raise ValidationError(f"linking: parameter {key!r} needs one value per curve ({n})")
    lk = np.zeros((n, n), dtype=int)
    for i, j in itertools.combinations(range(n), 2):
        lk[i, j] = lk[j, i] = gauss_linking(curves[i], curves[j])
    charges = [1.0] * n if p["charges"] is None else p["charges"]
    slk = [0] * n if p["slk"] is None else p["slk"]
    return [f"{n} curves read"], {"linking.json": {
        "lk_matrix": lk.tolist(),
        "charges": charges,
        "level": p["k"],
        "slk": slk,
        "cs_phase": cs_phase(charges, LinkData(lk, slk), p["k"]),
    }}


def _platform(p: dict) -> tuple[PlatformParams, WindowReport, list[str]]:
    """``platform`` as ``PlatformParams``, its adiabatic window and the window's report line."""
    platform = PlatformParams(**p["platform"])
    report = adiabatic_window(platform)
    return platform, report, [
        f"adiabatic window {'pass' if report.passed else f'FAIL, need both ratios >= {report.factor:g}'}: "
        f"(1/T)/splitting = {report.ratio_lower:.3g}, gap*T = {report.ratio_upper:.3g}"]


def _demo_budget(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """The adiabatic window, reported whether or not it passed, the per-loop leakage and the error budget."""
    platform, report, lines = _platform(p)
    budget = gate_budget(platform)
    return lines, {"budget.json": {
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
    }}


def _ramsey(p: dict, base_dir: str, seed: int) -> tuple[list[str], dict]:
    """The Ramsey or echo fringes of the pi/2 gate's loop, on a platform whose adiabatic window passes."""
    platform, report, lines = _platform(p)
    if not report.passed:
        raise ValidationError("adiabatic window violated: need splitting << 1/T_loop << gap with factor "
                              f"{report.factor:g} (got ratios {report.ratio_lower:.3g} and "
                              f"{report.ratio_upper:.3g})")
    spec = synth_phase_gate(p["q"], n_samples=p["samples"], steps=p["steps"])
    result = ramsey_echo(spec.loop, platform.splitting, platform, echo=p["echo"], scan_count=p["scan_count"])
    cols = [result.scan_phases] + [result.populations[i] for i in range(len(result.prep_phases))]
    headers = ["scan_phase"] + [f"population_prep{i}" for i in range(len(result.prep_phases))]

    def _maybe(x: float):
        return x if math.isfinite(x) else None

    return lines, {
        "fringe.csv": (headers, cols),
        "ramsey.json": {
            "echo": result.echo,
            "delta_e_rad_per_s": platform.splitting,
            "doubled_phase": _maybe(result.doubled_phase),
            "geometric_phase": _maybe(result.geometric_phase),
            "reconstructed_trace": _maybe(result.reconstructed_trace),
            "contrast": result.contrast,
            "prep_phases": list(result.prep_phases),
        },
    }


_DRIVE = _table_of(BondDrive)
_BONDS = {key: param for key, param in _DRIVE.items() if param.default is _REQUIRED}  # no phases
_PLATFORM = _table_of(PlatformParams)
_HOPF = {
    "radius1": _Param(float, 1.0, POSITIVE),
    "radius2": _Param(float, 1.0, POSITIVE),
    "segments": _Param(int, 512, SEGMENTS),
}
_MASSES = _Param([float], [2.1, 2.1, 4.7], MASSES)

# Scenario -> (parameter table, scenario).  scenario(p, base_dir, seed) takes the table's parameters, the
# config's directory and the seed, checks the physics, computes, and returns its report lines and its
# outputs as {file name: JSON dict or CSV (header, columns)}; a column shorter than the longest is one period.
SCENARIOS = {
    "gate-synth": ({
        "q": _Param(float, bound=POSITIVE),
        "target": _Param(str, "pi2", (lambda v: v in ("pi2", "hadamard"), "'pi2' or 'hadamard'")),
        "samples": _Param(int, 1024, SAMPLES),
        "steps": _Param(int, 4096, STEPS),
    }, _gate_synth),
    "trace-sweep": ({
        "q": _Param(float, 2.0, POSITIVE),
        "theta0": _Param(float, math.pi / 2),
        "a": _Param(float, 0.2),
        "b": _Param(float, 0.2),
        "psi_values": _Param([float], [0.025, 0.05, 0.1], _NON_EMPTY),
        "steps": _Param(int, 8192, STEPS),
        "samples": _Param(int, 1024, SAMPLES),
        # a positive count runs the seeded gauge check
        "gauge_rotations": _Param(int, 0, _NON_NEGATIVE),
    }, _trace_sweep),
    "trimer-sim": ({
        "drive": _Param(_DRIVE),
        "masses": _MASSES,
        "periods": _Param(int, 20, _COUNT),
        "steps_per_period": _Param(int, 1536, _COUNT),
    }, _trimer_sim),
    "phase-sweep": ({
        "drive": _Param(_BONDS),  # the sweep sets both phases
        "masses": _MASSES,
        "phi_count": _Param(int, 33, _COUNT),
        "periods": _Param(int, 8, _COUNT),  # accepted; the one-period rate is the mean over any periods
    }, _phase_sweep),
    "linking": ({
        "curve_files": _Param([str], None, (lambda v: len(v) >= 2, "at least two file names")),
        "hopf": _Param(_HOPF, {}),  # the curves when curve_files is not given
        "charges": _Param([float], None),  # None: 1.0 per curve
        "k": _Param(int, 4, LEVEL),
        "slk": _Param([int], None),  # None: 0 per curve
    }, _linking),
    "demo-budget": ({
        "platform": _Param(_PLATFORM, {}),
    }, _demo_budget),
    "ramsey": ({
        "platform": _Param(_PLATFORM, {}),
        "q": _Param(float, bound=POSITIVE),
        "echo": _Param(bool, True),
        "scan_count": _Param(int, 8, SCANS),
        "samples": _Param(int, 1024, SAMPLES),
        "steps": _Param(int, 4096, STEPS),
    }, _ramsey),
}

# The config root; run_scenario reads params through the scenario's table.
_ROOT = {
    "schema_version": _Param(int, bound=(lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION))),
    "scenario": _Param(str, bound=(lambda v: v in SCENARIOS, f"one of {', '.join(SCENARIOS)}")),
    "seed": _Param(int, 0, _NON_NEGATIVE),
    "output_dir": _Param(str, "", (lambda v: "\0" not in v, "free of NUL bytes")),
    "params": _Param(dict, {}),
}


def run_scenario(cfg: dict, base_dir: str) -> tuple[list[str], dict]:
    """Run a config, as ``load_config`` returns it, from ``base_dir``, its directory: its lines and outputs.

    The lines are ``scenario: <name>``, the scenario's own and ``pass``; the
    outputs are {file name: JSON dict or CSV (header, columns)}, as ``_write_csv`` reads them.
    """
    table, scenario = SCENARIOS[cfg["scenario"]]
    p = _read(table, cfg["params"], f"{cfg['scenario']} params")
    lines, outputs = scenario(p, base_dir, cfg["seed"])
    return [f"scenario: {cfg['scenario']}", *lines, "pass"], outputs


def _config_dir(config_path: str) -> str:
    return os.path.dirname(os.path.abspath(config_path))


def _cmd_run(args) -> int:
    t_start = time.perf_counter()
    cfg = load_config(args.config)
    outdir = args.out or cfg["output_dir"] or os.environ.get(OUTDIR_ENV) or "."
    outputs = run_scenario(cfg, _config_dir(args.config))[1]  # a failed run leaves no directory behind
    pending = {}  # final name -> its partial file, until renamed into place
    try:
        os.makedirs(outdir, exist_ok=True)
        partial = os.path.join(outdir, f".partial-{os.getpid()}-{os.urandom(4).hex()}-")  # unique to this run
        pending = {name: partial + name for name in [*outputs, "run_manifest.json"]}  # in renaming order
        digests = {name: _write_json(pending[name], out) if isinstance(out, dict)
                   else _write_csv(pending[name], *out) for name, out in outputs.items()}
        manifest = {
            "artifact_version": __version__,
            "config": cfg,
            "seed": cfg["seed"],
            "outputs": digests,
            "wall_seconds": time.perf_counter() - t_start,
        }
        _write_json(pending["run_manifest.json"], manifest)
        for name in pending:  # before the first rename, so a clash leaves no data file behind
            if os.path.isdir(os.path.join(outdir, name)):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
        for name in list(pending):
            os.replace(pending[name], os.path.join(outdir, name))
            del pending[name]
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot use output directory {outdir}: {reason}") from exc
    finally:
        for path in pending.values():
            with contextlib.suppress(OSError):
                os.remove(path)
    print(f"wrote {len(outputs)} output file(s) + manifest to {outdir}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    for line in run_scenario(cfg, _config_dir(args.config))[0]:
        print(line)
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
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
    run_p.add_argument("--threads", type=int, default=1, help="ignored; runs are single-threaded")
    run_p.set_defaults(func=_cmd_run)
    val_p = sub.add_parser("validate", help="run a config's scenario and print its report, writing nothing")
    val_p.add_argument("config", help="path to a JSON scenario config")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("validation error: out of memory; lower the sample counts", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
