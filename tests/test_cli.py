import json
import math
import os

import numpy as np
import pytest

from triholonomy.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_hopf_curves(directory, n_points=257):
    """Two linked circles as curve CSVs in ``directory``; returns their file names."""
    t = np.linspace(0, 2 * math.pi, n_points)
    c1 = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
    c2 = np.stack([1 + np.cos(t), 0 * t, -np.sin(t)], axis=1)
    names = ["c1.csv", "c2.csv"]
    for name, pts in zip(names, (c1, c2)):
        pts[-1] = pts[0]
        lines = ["x,y,z"] + [",".join(format(float(v), ".17g") for v in row) for row in pts]
        (directory / name).write_text("\n".join(lines))
    return names


def small_gate_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": "gate-synth",
        "seed": 0,
        "params": {"q": 50.0, "target": "pi2", "samples": 256, "steps": 1024},
    }
    cfg.update(overrides)
    return cfg


class TestRun:
    def test_gate_synth_happy_path(self, tmp_path):
        cfg_path = write_config(tmp_path, small_gate_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        gate = json.loads((out / "gate.json").read_text())
        assert gate["fidelity"] > 1 - 1e-3
        assert len(gate["matrix"]) == 2 and len(gate["matrix"][0][0]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "gate.json" in manifest["outputs"]
        assert manifest["config"]["scenario"] == "gate-synth"

    def test_trimer_sim_columns(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "trimer-sim",
            "seed": 0,
            "params": {
                "drive": {
                    "d12": 1.1, "a12": 0.2, "omega12": 1.0,
                    "d": 1.0, "a": 0.15, "omega": 3.0,
                    "phi13": math.pi / 4, "phi23": -math.pi / 4,
                },
                "masses": [2.1, 2.1, 4.7],
                "periods": 3,
                "steps_per_period": 768,
            },
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        header = (out / "trimer_sim.csv").read_text().splitlines()[0]
        assert header == "t,xi12,xi13,xi23,theta,L_eff"

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_unknown_scenario_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, small_gate_config(scenario="nope"))
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_numerical_failure_exits_3_without_outputs(self, tmp_path):
        # amplitudes pass validation but the triangle degenerates mid-run
        cfg = {
            "schema_version": 1,
            "scenario": "trimer-sim",
            "seed": 0,
            "params": {
                "drive": {
                    "d12": 2.2, "a12": 0.3, "omega12": 1.0,
                    "d": 1.0, "a": 0.4, "omega": 3.0,
                },
                "masses": [1.0, 1.0, 1.0],
                "periods": 2,
            },
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, small_gate_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "gate.json").read_bytes() == (out2 / "gate.json").read_bytes()
        m1 = json.loads((out1 / "run_manifest.json").read_text())
        m2 = json.loads((out2 / "run_manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]  # identical checksums

    def test_linking_scenario_with_curve_files(self, tmp_path):
        names = write_hopf_curves(tmp_path)
        cfg = {
            "schema_version": 1,
            "scenario": "linking",
            "seed": 0,
            "params": {
                "curve_files": [str(tmp_path / name) for name in names],
                "charges": [3.0, 3.0],
                "k": 36,
            },
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "linking.json").read_text())
        assert abs(payload["lk_matrix"][0][1]) == 1
        assert payload["cs_phase"] == pytest.approx(math.pi, abs=1e-9)

    def test_relative_curve_files_resolve_against_config_dir(self, tmp_path, monkeypatch):
        # run and validate both read relative curve_files next to the config
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        cfg = {
            "schema_version": 1,
            "scenario": "linking",
            "seed": 0,
            "params": {"curve_files": write_hopf_curves(cfg_dir, 129), "charges": [3.0, 3.0], "k": 36},
        }
        cfg_path = write_config(cfg_dir, cfg)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["validate", cfg_path]) == 0
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "linking.json").read_text())
        assert abs(payload["lk_matrix"][0][1]) == 1

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, small_gate_config())
        target = tmp_path / "envout"
        monkeypatch.setenv("TRIHOLONOMY_OUTDIR", str(target))
        assert main(["run", cfg_path]) == 0
        assert (target / "gate.json").exists()

    def test_trace_sweep_scenario(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "trace-sweep",
            "seed": 0,
            "params": {"q": 2.0, "a": 0.2, "b": 0.2, "psi_values": [0.05], "steps": 2048, "samples": 512},
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows = (out / "trace_sweep.csv").read_text().splitlines()
        assert rows[0] == "psi_abs,trace_direct,trace_order2,trace_order4,i2,i4"
        direct, order2 = (float(x) for x in rows[1].split(",")[1:3])
        assert abs(direct - order2) < 1e-2

    def test_trace_sweep_seeded_gauge_check(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "trace-sweep",
            "seed": 7,
            "params": {
                "q": 2.0, "a": 0.2, "b": 0.2, "psi_values": [0.05],
                "steps": 2048, "samples": 512, "gauge_rotations": 5,
            },
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        check = json.loads((out / "gauge_check.json").read_text())
        assert check["seed"] == 7 and check["rotations"] == 5
        assert check["worst_trace_shift"] < 1e-7
        # seed override is recorded and reproducible
        out2 = tmp_path / "out2"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out2), "--seed", "7"]) == 0
        assert (out / "gauge_check.json").read_bytes() == (out2 / "gauge_check.json").read_bytes()

    def test_phase_sweep_scenario_with_threads(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "phase-sweep",
            "seed": 0,
            "params": {
                "drive": {"d12": 1.1, "a12": 0.2, "omega12": 1.0, "d": 1.0, "a": 0.15, "omega": 3.0},
                "masses": [2.1, 2.1, 4.7],
                "phi_values": [-math.pi / 2, 0.0, math.pi / 2],
                "periods": 2,
            },
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out), "--threads", "2"]) == 0
        rows = (out / "phase_sweep.csv").read_text().splitlines()
        assert rows[0] == "phi,mean_angular_velocity"
        rates = [float(r.split(",")[1]) for r in rows[1:]]
        assert abs(rates[1]) < 1e-6 * max(abs(rates[0]), abs(rates[2]))

    def test_demo_budget_and_ramsey_scenarios(self, tmp_path):
        budget_cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {"platform": {"n_rep": 5}},
        }
        out1 = tmp_path / "budget"
        assert main(["run", write_config(tmp_path, budget_cfg, "b.json"), "--out", str(out1)]) == 0
        payload = json.loads((out1 / "budget.json").read_text())
        assert payload["window"]["passed"]
        ramsey_cfg = {
            "schema_version": 1,
            "scenario": "ramsey",
            "seed": 0,
            "params": {"platform": {}, "q": 400.0, "samples": 512, "steps": 2048},
        }
        out2 = tmp_path / "ramsey"
        assert main(["run", write_config(tmp_path, ramsey_cfg, "r.json"), "--out", str(out2)]) == 0
        recon = json.loads((out2 / "ramsey.json").read_text())
        assert recon["reconstructed_trace"] == pytest.approx(math.sqrt(2), abs=1e-3)
        fringe = (out2 / "fringe.csv").read_text().splitlines()
        assert fringe[0].startswith("scan_phase,population_prep0")


class TestValidate:
    def test_demo_budget_passes_with_ratios(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {"platform": {"t_loop": 1e-6}},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "pass" in text and "window" in text

    def test_amplitude_bound_rejected(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {"platform": {"epsilon": 0.9}},
        }
        assert main(["validate", write_config(tmp_path, cfg)]) == 2

    def test_window_violation_rejected_with_named_condition(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {
                "platform": {
                    "e_e1": 2 * math.pi * 1.0e6,
                    "e_e2": 2 * math.pi * 14.0e6,
                    "e_a": 2 * math.pi * 18.0e6,
                }
            },
        }
        assert main(["validate", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "adiabatic window" in err
        assert "splitting << 1/T_loop << gap" in err

    def test_missing_curve_file_rejected(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "linking",
            "seed": 0,
            "params": {"curve_files": ["nowhere.csv"], "charges": [1, 1], "k": 4},
        }
        assert main(["validate", write_config(tmp_path, cfg)]) == 2

    def test_never_writes_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, small_gate_config())
        before = set(os.listdir(tmp_path))
        assert main(["validate", cfg_path]) == 0
        assert set(os.listdir(tmp_path)) == before


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "gate_pi2.json",
            "gate_hadamard.json",
            "trace_sweep.json",
            "trimer_reference.json",
            "phase_sweep.json",
            "linking_hopf.json",
            "demo_budget.json",
            "ramsey.json",
        ],
    )
    def test_all_shipped_configs_validate(self, name):
        assert main(["validate", os.path.join(CONFIG_DIR, name)]) == 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "triholonomy" in capsys.readouterr().out
