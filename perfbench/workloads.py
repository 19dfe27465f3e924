"""Seeded workload generator for the triholonomy benchmark.

A workload is a fixed list of slots.  A slot fixes the scenario and every
parameter that sets its cost (steps, CSV rows, curve segments), so each
seed asks for the same amount of work.  The seed draws the remaining
parameters (coupling weights, ellipse sizes, psi grids, drives, masses,
curve geometry) and the order in which the slots run.

Gates and trimer parameters are drawn from finite grids: every config the
generator can write has its outputs recorded in ``reference.json`` (see
``record_reference.py``), and every grid point exits 0 at the commit that
defined the benchmark.  Linking configs carry their exact answer, which
follows from how the curves are built.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("gates", "trimer", "linking")

# gates: few, long Wilson lines (connection sampling, SU(2) products, calibration).
GATE_STEPS = (4096, 8192, 16384)
# Two equal Hadamard runs make the p75 latency land inside one cost level.
HADAMARD_STEPS = (4096, 8192, 8192)
GATE_Q = (40.0, 50.0, 64.0, 80.0, 100.0, 128.0, 160.0, 200.0)
RAMSEY_Q = (100.0, 200.0, 400.0, 800.0)
RAMSEY_SCANS = (8, 12, 16)
RAMSEY_PLATFORM = {"t_loop": 1e-06, "tau_r": 5e-05}
TRACE_STEPS = (4096, 8192)
TRACE_Q = (1.5, 2.0, 2.5)
TRACE_ELLIPSE = ((0.15, 0.15), (0.2, 0.2), (0.2, 0.15))
# q * |psi| stays small enough that |I2| < 0.5 on every ellipse above.
TRACE_PSI = ((0.025, 0.05, 0.1), (0.02, 0.04, 0.08), (0.03, 0.06, 0.09))
TRACE_CONFIG_SEEDS = (0, 1)  # the config seed draws the gauge rotations
TRACE_GAUGE_ROTATIONS = 1

# trimer: reconstruction, 17-digit CSV output, many short Wilson lines.
TRIMER_SIM_SIZES = ((4, 256), (8, 512), (16, 1024), (32, 1536), (48, 2048))  # (periods, steps/period)
PHASE_SWEEP_SIZES = ((9, 4), (17, 4), (21, 8), (33, 8))  # (phi_count, periods)
DRIVES = (
    {"d12": 1.1, "a12": 0.2, "d": 1.0, "a": 0.15},
    {"d12": 1.0, "a12": 0.15, "d": 1.0, "a": 0.1},
    {"d12": 1.2, "a12": 0.2, "d": 1.0, "a": 0.12},
)
DRIVE_FREQUENCIES = {"omega12": 1.0, "omega": 3.0}  # fixed: the ratio sets the cost
DRIVE_PHASES = ((math.pi / 4, -math.pi / 4), (math.pi / 3, -math.pi / 6))
MASSES = ((2.1, 2.1, 4.7), (1.0, 1.0, 1.0), (1.5, 2.5, 3.5))

# linking: Gauss double sums; no holonomy work.
HOPF_SEGMENTS = (1024, 1536, 2048)
CHAIN_SIZES = ((3, 768), (4, 1024))  # (curves, segments per curve)
CHARGES = (1.0, 2.0, 3.0)
LEVELS = (4, 12, 36)


@dataclass
class Slot:
    """One scenario run of a workload: its config and, for linking, its exact answer."""

    name: str
    config: dict
    truth: dict | None = None
    files: dict = field(default_factory=dict)  # curve CSV name -> rows of (x, y, z)

    @property
    def key(self) -> str:
        """Canonical config text; the reference values are stored under it."""
        return config_key(self.config)


def config_key(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _config(scenario: str, params: dict, seed: int = 0) -> dict:
    return {"schema_version": 1, "scenario": scenario, "seed": seed, "params": params}


def _pi2(q, steps):
    return _config("gate-synth", {"q": q, "target": "pi2", "samples": 1024, "steps": steps})


def _hadamard(q, steps):
    return _config("gate-synth", {"q": q, "target": "hadamard", "samples": 1024, "steps": steps})


def _ramsey(q, steps, scans):
    params = {"platform": dict(RAMSEY_PLATFORM), "q": q, "echo": True,
              "scan_count": scans, "samples": 1024, "steps": steps}
    return _config("ramsey", params)


def _trace(q, ellipse, psi, steps, seed):
    params = {"q": q, "theta0": math.pi / 2, "a": ellipse[0], "b": ellipse[1],
              "psi_values": list(psi), "steps": steps, "samples": 1024,
              "gauge_rotations": TRACE_GAUGE_ROTATIONS}
    return _config("trace-sweep", params, seed)


def _drive(drive, phases=None):
    d = dict(drive, **DRIVE_FREQUENCIES)
    if phases is not None:
        d["phi13"], d["phi23"] = phases
    return d


def _trimer_sim(drive, phases, masses, size):
    periods, spp = size
    params = {"drive": _drive(drive, phases), "masses": list(masses),
              "periods": periods, "steps_per_period": spp}
    return _config("trimer-sim", params)


def _phase_sweep(drive, masses, size):
    count, periods = size
    params = {"drive": _drive(drive), "masses": list(masses), "phi_count": count, "periods": periods}
    return _config("phase-sweep", params)


def _gates(rng: random.Random) -> list[Slot]:
    slots = []
    for steps in GATE_STEPS:
        slots.append(Slot(f"pi2-{steps}", _pi2(rng.choice(GATE_Q), steps)))
        slots.append(Slot(f"ramsey-{steps}", _ramsey(rng.choice(RAMSEY_Q), steps, rng.choice(RAMSEY_SCANS))))
    for i, steps in enumerate(HADAMARD_STEPS):
        slots.append(Slot(f"hadamard-{steps}-{i}", _hadamard(rng.choice(GATE_Q), steps)))
    for steps in TRACE_STEPS:
        cfg = _trace(rng.choice(TRACE_Q), rng.choice(TRACE_ELLIPSE), rng.choice(TRACE_PSI),
                     steps, rng.choice(TRACE_CONFIG_SEEDS))
        slots.append(Slot(f"trace-sweep-{steps}", cfg))
    return slots


def _trimer(rng: random.Random) -> list[Slot]:
    slots = []
    for size in TRIMER_SIM_SIZES:
        cfg = _trimer_sim(rng.choice(DRIVES), rng.choice(DRIVE_PHASES), rng.choice(MASSES), size)
        slots.append(Slot(f"trimer-sim-{size[0] * size[1] + 1}rows", cfg))
    for size in PHASE_SWEEP_SIZES:
        cfg = _phase_sweep(rng.choice(DRIVES), rng.choice(MASSES), size)
        slots.append(Slot(f"phase-sweep-{size[0]}x{size[1]}", cfg))
    return slots


def grid(workload: str) -> list[dict]:
    """Every config the generator can write for a gates or trimer workload."""
    if workload == "gates":
        cfgs = [_pi2(q, s) for s in GATE_STEPS for q in GATE_Q]
        cfgs += [_hadamard(q, s) for s in sorted(set(HADAMARD_STEPS)) for q in GATE_Q]
        cfgs += [_ramsey(q, s, n) for s in GATE_STEPS for q in RAMSEY_Q for n in RAMSEY_SCANS]
        cfgs += [_trace(q, e, p, s, seed) for s in TRACE_STEPS for q in TRACE_Q
                 for e in TRACE_ELLIPSE for p in TRACE_PSI for seed in TRACE_CONFIG_SEEDS]
        return cfgs
    if workload == "trimer":
        cfgs = [_trimer_sim(d, ph, m, size) for size in TRIMER_SIM_SIZES for d in DRIVES
                for ph in DRIVE_PHASES for m in MASSES]
        cfgs += [_phase_sweep(d, m, size) for size in PHASE_SWEEP_SIZES for d in DRIVES for m in MASSES]
        return cfgs
    raise ValueError(f"workload {workload!r} has no recorded grid")


# ----------------------------------------------------------------- linking


def _cs_phase(charges, lk, slk, k) -> float:
    """(4 pi / k) sum_{i<j} q_i q_j Lk_ij + (2 pi / k) sum_i q_i^2 SLk_i, mod 2 pi."""
    n = len(charges)
    pair = sum(charges[i] * charges[j] * lk[i][j] for i in range(n) for j in range(i + 1, n))
    self_term = sum(q * q * s for q, s in zip(charges, slk))
    return ((4 * math.pi / k) * pair + (2 * math.pi / k) * self_term) % (2 * math.pi)


def _rotation(rng: random.Random):
    """Uniform random proper rotation matrix (from a unit quaternion)."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def _chain(rng: random.Random, n_curves: int, segments: int):
    """Curves of a chain of alternately flat (xy) and upright (xz) circles.

    Circle i is centred at (i s, 0, 0).  Neighbours are linked once and all
    other pairs are unlinked.  The sign follows from the intersection of the
    upright circle with the disk of the flat one: with orientations
    sigma = +-1, Lk = sigma_flat sigma_upright when the flat circle lies at
    smaller x, and -sigma_flat sigma_upright otherwise.  A random rigid
    motion and a random order of the curves keep the answer exact.
    """
    spacing = rng.uniform(1.4, 1.6)
    radii = [rng.uniform(0.9, 1.1) for _ in range(n_curves)]
    sigma = [rng.choice((1, -1)) for _ in range(n_curves)]
    lk = [[0] * n_curves for _ in range(n_curves)]
    for i in range(n_curves - 1):
        flat, upright = (i, i + 1) if i % 2 == 0 else (i + 1, i)
        sign = 1 if flat < upright else -1
        lk[i][i + 1] = lk[i + 1][i] = sign * sigma[flat] * sigma[upright]
    rot = _rotation(rng)
    shift = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    curves = []
    for i in range(n_curves):
        pts = []
        for m in range(segments + 1):
            t = 2 * math.pi * m / segments
            c, s = radii[i] * math.cos(t), radii[i] * math.sin(t)
            local = (i * spacing + c, s, 0.0) if i % 2 == 0 else (i * spacing + c, 0.0, -s)
            pts.append(tuple(sum(rot[r][k] * local[k] for k in range(3)) + shift[r] for r in range(3)))
        pts[-1] = pts[0]
        curves.append(pts if sigma[i] > 0 else pts[::-1])
    order = list(range(n_curves))
    rng.shuffle(order)
    return [curves[i] for i in order], [[lk[i][j] for j in order] for i in order]


def _linking_params(rng: random.Random, n_curves: int, lk) -> tuple[dict, dict]:
    charges = [rng.choice(CHARGES) for _ in range(n_curves)]
    k = rng.choice(LEVELS)
    slk = [rng.choice((0, 1)) for _ in range(n_curves)]
    params = {"charges": charges, "k": k, "slk": slk}
    truth = {"lk_matrix": [x for row in lk for x in row], "cs_phase": [_cs_phase(charges, lk, slk, k)]}
    return params, truth


def _linking(rng: random.Random) -> list[Slot]:
    slots = []
    for segments in HOPF_SEGMENTS:
        params, truth = _linking_params(rng, 2, [[0, 1], [1, 0]])
        params["hopf"] = {"radius1": rng.uniform(0.8, 1.25), "radius2": rng.uniform(0.8, 1.25),
                          "segments": segments}
        slots.append(Slot(f"hopf-{segments}", _config("linking", params), truth))
    for n_curves, segments in CHAIN_SIZES:
        curves, lk = _chain(rng, n_curves, segments)
        params, truth = _linking_params(rng, n_curves, lk)
        name = f"chain{n_curves}-{segments}"
        files = {f"{name}-curve{i}.csv": pts for i, pts in enumerate(curves)}
        params["curve_files"] = list(files)  # made absolute when written
        slots.append(Slot(name, _config("linking", params), truth, files))
    return slots


def generate(workload: str, seed: int) -> list[Slot]:
    """The workload's slots for a seed, in the order they run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    slots = {"gates": _gates, "trimer": _trimer, "linking": _linking}[workload](rng)
    rng.shuffle(slots)
    return slots


def write(slots: list[Slot], directory: Path) -> list[Path]:
    """Write each slot's config (and curve CSVs) into ``directory``; return the config paths.

    Curve files are referenced by absolute path, so runs do not depend on
    the working directory.
    """
    directory = Path(directory).resolve()
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, slot in enumerate(slots):
        for name, pts in slot.files.items():
            with open(directory / name, "w", newline="\n") as fh:
                fh.write("x,y,z\n")
                fh.writelines(",".join(format(v, ".17g") for v in p) + "\n" for p in pts)
        if slot.files:
            slot.config["params"]["curve_files"] = [str(directory / n) for n in slot.files]
        path = directory / f"{i:02d}-{slot.name}.json"
        path.write_text(json.dumps(slot.config, indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths
