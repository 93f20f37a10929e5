"""Experiment front-end: exit codes, artifacts, reproducibility."""

import json

import pytest

from hexnls.cli import main, render_phase_csv


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRenderPhaseCsv:
    POINTS = [
        {"p": 5.0, "mu": 1.0, "classification": "GroundState",
         "energy": -0.5, "iterations": 163, "residual": 7.6e-11, "init_used": "trial-eps"},
        {"p": 3.0, "mu": 2.0, "classification": "GroundState",
         "energy": -1.25, "iterations": 59, "residual": 4.7e-07, "init_used": "soliton-bump"},
        {"p": 3.0, "mu": 0.5, "classification": "SpreadToZero",
         "energy": -1e-9, "iterations": 4, "residual": 1e-12, "init_used": "uniform"},
    ]

    def test_header_and_sorting(self):
        lines = render_phase_csv(self.POINTS).strip().split("\n")
        assert lines[0] == "p,mu,classification,energy,iterations,residual,init_used"
        keys = [tuple(float(x) for x in ln.split(",")[:2]) for ln in lines[1:]]
        assert keys == sorted(keys)

    def test_stable_under_permutation(self):
        assert render_phase_csv(self.POINTS) == render_phase_csv(self.POINTS[::-1])

    def test_round_trip(self):
        lines = render_phase_csv(self.POINTS).strip().split("\n")
        parsed = []
        for ln in lines[1:]:
            p, mu, cls, e, it, res, init = ln.split(",")
            parsed.append({"p": float(p), "mu": float(mu), "classification": cls,
                           "energy": float(e), "iterations": int(it),
                           "residual": float(res), "init_used": init})
        assert parsed == sorted(self.POINTS, key=lambda q: (q["p"], q["mu"]))


class TestUsageErrors:
    def test_unknown_kind(self, capsys):
        assert main(["nosuch-kind"]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path):
        assert main(["trial-forms", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["trial-forms", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["phase-diagram", "soliton-check"])
    def test_seed_rejected_where_unused(self, tmp_path, capsys, kind):
        assert main([kind, "--seed", "5", "--out", str(tmp_path)]) == 2
        assert "--seed does not apply" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("kind, flag, value", [("soliton-check", "--radius", "5"),
                                                   ("unbounded-p6", "--p", "5")])
    def test_flag_rejected_where_unused(self, tmp_path, capsys, kind, flag, value):
        assert main([kind, flag, value, "--out", str(tmp_path)]) == 2
        assert f"{flag} does not apply" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["unbounded-p6", "phase-diagram"])
    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mass_refused(self, tmp_path, capsys, kind, mu):
        assert main([kind, "--mu", mu, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_power_refused(self, tmp_path, capsys, p):
        assert main(["inequalities", "--p", p, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, spec, message", [
        ("trial-forms", {"eps_list": [0.0]}, "eps must be positive"),
        ("inequalities", {"radius": 2, "corpus_size": -1}, "corpus size"),
    ])
    def test_out_of_range_setting_refused(self, tmp_path, capsys, kind, spec, message):
        cfg = write_config(tmp_path, "c.json", spec)
        out = tmp_path / "run"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("kind, spec, message", [
        ("inequalities", {"slack": float("inf")}, "'slack' must be finite"),
        ("inequalities", {"slack": float("-inf")}, "'slack' must be finite"),
        ("inequalities", {"p_list": [3.0, float("nan")]}, "'p_list' must be finite"),
        ("trial-forms", {"tolerance": float("nan")}, "'tolerance' must be finite"),
        ("trial-forms", {"tolerance": float("inf")}, "'tolerance' must be finite"),
        ("soliton-check", {"half_length": float("inf")}, "'half_length' must be finite"),
        ("inequalities", {"radius": 2, "slack": -1e-3}, "slack must be non-negative"),
        ("trial-forms", {"tolerance": 0.0}, "tolerance must be positive"),
        ("soliton-check", {"profile_tolerance": -1e-2}, "profile_tolerance must be positive"),
        ("unbounded-p6", {"radius": 2, "width_list": []}, "'width_list' must not be empty"),
        ("inequalities", {"radius": 2, "p_list": []}, "'p_list' must not be empty"),
        ("trial-forms", {"eps_list": []}, "'eps_list' must not be empty"),
        ("phase-diagram", {"radius": 2, "mu_list": []}, "'mu_list' must not be empty"),
    ])
    def test_non_finite_or_out_of_range_setting_refused(self, tmp_path, capsys, kind,
                                                        spec, message):
        # json reads NaN and Infinity; an infinite slack or tolerance switches
        # its gate off, and a nan one fails every check as if the run had.
        # An empty list leaves its kind nothing to check.
        cfg = write_config(tmp_path, "c.json", spec)
        out = tmp_path / "run"
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"eps_list": [0.5], "radius": 3})
        out = tmp_path / "run"
        assert main(["trial-forms", "--config", cfg, "--out", str(out)]) == 2
        assert "'radius'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_config_not_an_object(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", [1, 2])
        assert main(["trial-forms", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("kind,spec", [
        ("unbounded-p6", {"radius": "5"}),
        ("unbounded-p6", {"mu_list": 10.0}),
        ("unbounded-p6", {"radius": 5.0}),
        ("unbounded-p6", {"edge_length": True}),
        ("soliton-check", {"half_length": [30]}),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, kind, spec):
        cfg = write_config(tmp_path, "c.json", spec)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"{next(iter(spec))!r} takes a" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_int_accepted_for_float_setting(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"radius": 2, "edge_length": 1})
        assert main(["unbounded-p6", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_nonpositive_bisection_width(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"radius": 3, "tolerance": 0.0})
        assert main(["critical-mass", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "width must be positive" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestTrialForms:
    def test_pass_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"eps_list": [0.5], "p_list": [2.0, 3.0],
                            "mu_list": [1.0], "samples_per_edge": 33})
        out = tmp_path / "run"
        assert main(["trial-forms", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "trial_forms.csv").read_text().strip().split("\n")
        assert rows[0].startswith("eps,p,quantity")
        assert all(row.endswith(",pass") for row in rows[1:])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "trial-forms"
        assert manifest["config"]["eps_list"] == [0.5]
        assert manifest["runtime_seconds"] >= 0

    def test_unattainable_tolerance_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"eps_list": [0.5], "p_list": [2.0], "mu_list": [1.0],
                            "samples_per_edge": 33, "tolerance": 1e-15})
        assert main(["trial-forms", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestInequalities:
    CFG = {"radius": 3, "corpus_size": 30, "p_list": [3.0, 5.0],
           "ascent_starts": 3, "ascent_budget": 10}

    def test_pass_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        out = tmp_path / "run"
        assert main(["inequalities", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "inequality_ratios.csv").read_text().strip().split("\n")
        assert rows[0] == "name,p,ratio,bound,status"
        assert all(row.split(",")[-1] in ("pass", "reported") for row in rows[1:])
        constants = json.loads((out / "sharp_constants.json").read_text())
        assert constants["sobolev2d_p2"] > 0
        assert "gn_interp_p5" in constants

    def test_reproducible_given_seed(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["inequalities", "--config", cfg, "--out", str(d1)]) == 0
        assert main(["inequalities", "--config", cfg, "--out", str(d2)]) == 0
        assert main(["inequalities", "--config", cfg, "--seed", "1",
                     "--out", str(d3)]) == 0
        for name in ("inequality_ratios.csv", "sharp_constants.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert (d1 / "inequality_ratios.csv").read_bytes() \
            != (d3 / "inequality_ratios.csv").read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CFG)
        assert main(["inequalities", "--config", cfg, "--seed", "42",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42


class TestPhaseDiagram:
    def test_subcritical_pattern_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"radius": 4, "p_list": [3.0], "mu_list": [5.0, 10.0]})
        out = tmp_path / "run"
        assert main(["phase-diagram", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "phase_diagram.csv").read_text().strip().split("\n")
        assert len(rows) == 3
        assert all("GroundState" in row for row in rows[1:])

    def test_rerun_byte_identical(self, tmp_path):
        # Timings go to the manifest only, so the table repeats byte for byte.
        cfg = write_config(tmp_path, "c.json",
                           {"radius": 3, "p_list": [3.0, 5.0], "mu_list": [5.0, 10.0]})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert main(["phase-diagram", "--config", cfg, "--out", str(out)]) == 0
        assert (d1 / "phase_diagram.csv").read_bytes() == (d2 / "phase_diagram.csv").read_bytes()
        for row in (d1 / "phase_diagram.csv").read_text().strip().split("\n")[1:]:
            _, _, _, _, it, res, init = row.split(",")
            assert int(it) > 0 and float(res) >= 0
            assert init in ("soliton-bump", "trial-eps", "uniform")
        manifest = json.loads((d1 / "manifest.json").read_text())
        assert [(q["p"], q["mu"]) for q in manifest["point_runtimes"]] == \
            [(3.0, 5.0), (3.0, 10.0), (5.0, 5.0), (5.0, 10.0)]
        assert all(q["runtime_ms"] >= 0 for q in manifest["point_runtimes"])

    def test_structure_violation_exits_one(self, tmp_path, capsys):
        # On a tiny truncation a small subcritical mass relaxes to the flat
        # state, which breaks the everywhere-GroundState assertion for p < 4.
        cfg = write_config(tmp_path, "c.json",
                           {"radius": 4, "p_list": [3.0], "mu_list": [0.01]})
        assert main(["phase-diagram", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().err
        # Artifacts are still written for post-mortem inspection.
        assert (tmp_path / "phase_diagram.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    @pytest.mark.xfail(
        strict=True,
        reason="At the default radius 20, p=3, mass 0.01 ends SpreadToZero at "
               "E = -8.39e-6 (the flat state has -4.69e-6), a state with 28% of "
               "its mass on the truncation boundary, so the default sweep's "
               "'GroundState at every mass for p < 4' assertion fails.  It is "
               "the small-mass truncation artifact of the free boundary behind "
               "the acceptance xfails; the defaults are not changed to hide it.")
    def test_default_radius_small_subcritical_mass(self, tmp_path):
        assert main(["phase-diagram", "--p", "3", "--mu", "0.01",
                     "--out", str(tmp_path)]) == 0


class TestUnboundedP6:
    def test_pass_and_artifact(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"radius": 4})
        out = tmp_path / "run"
        assert main(["unbounded-p6", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "unbounded_p6.csv").read_text().strip().split("\n")
        assert rows[0] == "mu,width,energy"
        assert len(rows) == 1 + 2 * 4


class TestCriticalMass:
    def test_small_truncation_run(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           {"radius": 4, "tolerance": 0.2})
        out = tmp_path / "run"
        assert main(["critical-mass", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "critical_mass.json").read_text())
        lo, hi = doc["bracket"]
        assert lo < doc["critical_mass"] < hi
        assert doc["analytic_lower_bound"] > 0


class TestSolitonCheck:
    def test_pass_and_artifact(self, tmp_path):
        out = tmp_path / "run"
        assert main(["soliton-check", "--out", str(out)]) == 0
        doc = json.loads((out / "soliton_check.json").read_text())
        assert doc["classification"] == "GroundState"
        assert doc["energy"] < 0
        assert doc["profile_l2_rel_discrepancy"] < 1e-2

    @pytest.mark.parametrize("p", ["3", "5"])
    def test_pass_off_the_quartic_power(self, tmp_path, p):
        # p = 4 is the default; the reference profile must hold at other powers.
        out = tmp_path / "run"
        assert main(["soliton-check", "--p", p, "--out", str(out)]) == 0
        doc = json.loads((out / "soliton_check.json").read_text())
        assert doc["profile_l2_rel_discrepancy"] < 1e-2

    def test_override_flags(self, tmp_path):
        out = tmp_path / "run"
        assert main(["soliton-check", "--p", "4.0", "--mu", "3.0",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["p"] == 4.0
        assert manifest["config"]["mu"] == 3.0
        # The kind reads p and mu, not the sweep lists.
        assert "p_list" not in manifest["config"] and "mu_list" not in manifest["config"]
