import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from slpkit.cli import main, problem_from_json, problem_to_json


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def ex11_problem_json(pi_mult):
    return {
        "equation": {"N": 2, "f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
        "bc": {
            "matrix": [
                [
                    [math.cos(pi_mult * math.pi), 0],
                    [-math.sin(pi_mult * math.pi), 0],
                    [0, 0],
                    [0, 0],
                ],
                [[0, 0], [0, 0], [0, 0], [-1, 0]],
            ]
        },
    }


def ex31_problem_json(s):
    return {
        "equation": {"N": 2, "f": [1.0 / s, 1, 1], "q": [0, 0], "w": [1, 1]},
        "bc": {"matrix": [[[1, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0], [1, 0]]]},
    }


class TestSpectrumCommand:
    def test_ex11_critical_angle(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", ex11_problem_json(0.75))
        assert main(["spectrum", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 1
        assert out["eigenvalues"][0]["multiplicity"] == 1
        assert abs(out["eigenvalues"][0]["value"] - 1.0) < 1e-10

    def test_ex31_at_two(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", ex31_problem_json(2.0))
        assert main(["spectrum", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        vals = [e["value"] for e in out["eigenvalues"]]
        np.testing.assert_allclose(vals, [1 - math.sqrt(2), 1 + math.sqrt(2)], atol=1e-10)

    def test_separated_input_form(self, tmp_path, capsys):
        obj = {
            "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"separated": {"alpha": {"pi_mult": 0.75}, "beta": {"pi_mult": 0.5}}},
        }
        path = write(tmp_path / "p.json", obj)
        assert main(["spectrum", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 1

    def test_coupled_input_form(self, tmp_path, capsys):
        # antiperiodic-like condition on the free equation: double eigenvalue
        obj = {
            "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"coupled": {"gamma": {"pi_mult": 0.0}, "K": [[-1, 0], [0, -1]]}},
        }
        path = write(tmp_path / "p.json", obj)
        assert main(["spectrum", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["eigenvalues"] == [{"value": 2.0, "multiplicity": 2}]

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "-i", str(path)]) == 3

    def test_missing_file_exits_3(self):
        assert main(["spectrum", "-i", "/nonexistent/p.json"]) == 3

    def test_invalid_bc_exits_2_with_machine_readable_error(self, tmp_path, capsys):
        obj = ex11_problem_json(0.0)
        obj["bc"]["matrix"][1] = obj["bc"]["matrix"][0]  # proportional rows
        path = write(tmp_path / "p.json", obj)
        assert main(["spectrum", "-i", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RankDeficient"

    def test_output_file(self, tmp_path):
        path = write(tmp_path / "p.json", ex31_problem_json(2.0))
        out_path = tmp_path / "spec.json"
        assert main(["spectrum", "-i", path, "-o", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["count"] == 2


class TestClassifyCommand:
    def test_singular_product(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", ex31_problem_json(1.0))
        assert main(["classify", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["product"]["in_singular_set"] is True
        assert out["equation_side"]["membership"] == "E"

    def test_nonsingular_with_distance(self, tmp_path, capsys):
        obj = {
            "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"separated": {"alpha": 0.0, "beta": {"pi_mult": 0.5}}},
        }
        path = write(tmp_path / "p.json", obj)
        assert main(["classify", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["product"]["in_singular_set"] is False
        assert min(out["product"]["distances"].values()) > 0.0

    def test_c_point_fixture(self, tmp_path, capsys):
        obj = {
            "equation": {"f": [2.0, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"matrix": [[[1, 0], [0.5, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 0]]]},
        }
        path = write(tmp_path / "p.json", obj)
        assert main(["classify", "-i", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "P5" in out["product"]["sets"]

    def test_fixed_flag_restricts_output(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", ex31_problem_json(1.0))
        assert main(["classify", "-i", path, "--fixed", "bc"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "equation_side" in out and "bc_side" not in out and "product" not in out
        assert main(["classify", "-i", path, "--fixed", "eq"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "bc_side" in out and "equation_side" not in out and "product" not in out
        assert "BS1" in out["bc_side"]["sets"]

    def test_infinite_distance_is_strict_json(self, tmp_path, capsys):
        # a condition whose singular set is empty reports no finite
        # distance; the output must stay strict JSON (null, not Infinity)
        obj = {
            "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"separated": {"alpha": 0.0, "beta": {"pi_mult": 0.5}}},
        }
        path = write(tmp_path / "p.json", obj)
        assert main(["classify", "-i", path]) == 0
        text = capsys.readouterr().out
        assert "Infinity" not in text
        out = json.loads(text)
        assert out["equation_side"]["case"] == "ii"
        assert out["equation_side"]["distance"] is None

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", ex31_problem_json(1.3))
        main(["classify", "-i", path])
        first = capsys.readouterr().out
        main(["classify", "-i", path])
        assert capsys.readouterr().out == first


class TestSweepCommand:
    def test_ex11_builtin(self, tmp_path):
        fam = write(tmp_path / "f.json", {"kind": "builtin", "builtin": "ex1.1"})
        out_csv = tmp_path / "trace.csv"
        out_events = tmp_path / "events.json"
        code = main(
            ["sweep", "-f", fam, "-n", "128", "-o", str(out_csv), "--events", str(out_events)]
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["nu", "lambda_0", "lambda_1", "count"]
        counts = [int(r[-1]) for r in rows[1:]]
        assert counts.count(1) == 1 and counts.count(2) == len(counts) - 1
        drop = rows[1 + counts.index(1)]
        assert abs(float(drop[0]) - 0.75 * math.pi) < 1e-9
        assert drop[2] == ""  # undefined index is an empty cell
        events = json.loads(out_events.read_text())
        assert len(events) == 1
        ev = events[0]
        assert abs(ev["nu"] - 0.75 * math.pi) < 1e-3
        left = ev["classification"]["left"]["branches"]
        right = ev["classification"]["right"]["branches"]
        assert left[0]["kind"] == "diverges" and left[0]["sign"] == -1
        assert right[1]["kind"] == "diverges" and right[1]["sign"] == 1

    def test_ex21_builtin_events(self, tmp_path):
        fam = write(tmp_path / "f.json", {"kind": "builtin", "builtin": "ex2.1"})
        out_csv = tmp_path / "trace.csv"
        out_events = tmp_path / "events.json"
        assert main(
            ["sweep", "-f", fam, "-n", "128", "-o", str(out_csv), "--events", str(out_events)]
        ) == 0
        events = json.loads(out_events.read_text())
        assert len(events) == 1
        assert abs(events[0]["nu"] - 1.0) < 1e-6
        for side in ("left", "right"):
            branches = events[0]["classification"][side]["branches"]
            assert branches[0]["kind"] == "converges"
            assert branches[1]["kind"] == "diverges" and branches[1]["sign"] == 1

    def test_constant_family_empty_events(self, tmp_path):
        fam_obj = {
            "kind": "constant",
            "problem": ex31_problem_json(2.0),
            "domain": [0.0, 1.0],
        }
        fam = write(tmp_path / "f.json", fam_obj)
        out_events = tmp_path / "events.json"
        assert main(
            ["sweep", "-f", fam, "-n", "32", "-o", str(tmp_path / "t.csv"),
             "--events", str(out_events)]
        ) == 0
        assert json.loads(out_events.read_text()) == []

    def test_separated_angle_family_json(self, tmp_path):
        fam_obj = {
            "kind": "separated-angle",
            "axis": "alpha",
            "fixed": {"pi_mult": 0.5},
            "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
            "domain": [0.0, {"pi_mult": 1.0}],
        }
        fam = write(tmp_path / "f.json", fam_obj)
        assert main(["sweep", "-f", fam, "-n", "64", "-o", str(tmp_path / "t.csv")]) == 0

    def test_chart_affine_family_json(self, tmp_path):
        fam_obj = {
            "kind": "chart-affine",
            "chart": "O14",
            "from": [0.2, 0.4, -0.3, 0.1],
            "to": [1.8, 0.4, -0.3, 0.1],
            "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
        }
        fam = write(tmp_path / "f.json", fam_obj)
        events = tmp_path / "e.json"
        assert main(
            ["sweep", "-f", fam, "-n", "64", "-o", str(tmp_path / "t.csv"),
             "--events", str(events)]
        ) == 0
        evs = json.loads(events.read_text())
        assert len(evs) == 1  # crosses a12 = 1/f0 = 1
        assert abs(evs[0]["nu"] - 0.5) < 1e-6  # t with 0.2 + 1.6 t = 1

    def test_equation_affine_family_json(self, tmp_path):
        fam_obj = {
            "kind": "equation-affine",
            "from": {"f": [2.0, 1, 1], "q": [0, 0], "w": [1, 1]},
            "to": {"f": [0.5, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"matrix": [[[1, 0], [1, 0], [0, 0], [0, 0]],
                              [[0, 0], [0, 0], [-1, 0], [1, 0]]]},
        }
        fam = write(tmp_path / "f.json", fam_obj)
        events = tmp_path / "e.json"
        assert main(
            ["sweep", "-f", fam, "-n", "64", "-o", str(tmp_path / "t.csv"),
             "--events", str(events)]
        ) == 0
        evs = json.loads(events.read_text())
        # 1/f0 runs 0.5 -> 2, crossing eta = 1 at t = 1/3
        assert len(evs) == 1
        assert abs(evs[0]["nu"] - 1.0 / 3.0) < 1e-6

    @pytest.mark.parametrize("fam_obj, nu_event", [
        ({"kind": "chart-affine", "chart": "O14",
          "from": [0.2, 0.4, -0.3, 0.1], "to": [1.8, 0.4, -0.3, 0.1],
          "equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]}}, 0.5),
        ({"kind": "equation-affine",
          "from": {"f": [2.0, 1, 1], "q": [0, 0], "w": [1, 1]},
          "to": {"f": [0.5, 1, 1], "q": [0, 0], "w": [1, 1]},
          "bc": {"matrix": [[[1, 0], [1, 0], [0, 0], [0, 0]],
                            [[0, 0], [0, 0], [-1, 0], [1, 0]]]}}, 1.0 / 3.0),
    ])
    def test_affine_family_domain(self, tmp_path, fam_obj, nu_event):
        """A domain narrows the grid of a line family; the parameter keeps
        its meaning along the line."""
        fam = write(tmp_path / "f.json", dict(fam_obj, domain=[0.25, 0.75]))
        out_csv, events = tmp_path / "t.csv", tmp_path / "e.json"
        assert main(
            ["sweep", "-f", fam, "-n", "33", "-o", str(out_csv), "--events", str(events)]
        ) == 0
        with open(out_csv, newline="") as fh:
            nus = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        assert nus == np.linspace(0.25, 0.75, 33).tolist()
        assert (nus[0], nus[-1]) == (0.25, 0.75)
        evs = json.loads(events.read_text())
        assert len(evs) == 1 and abs(evs[0]["nu"] - nu_event) < 1e-6


class TestVerifyExample:
    @pytest.mark.parametrize("name", ["ex1.1", "ex2.1", "ex3.1"])
    def test_examples_pass(self, name, capsys):
        assert main(["verify-example", "--name", name]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_example(self, capsys):
        assert main(["verify-example", "--name", "ex9.9"]) == 2


class TestErrorPaths:
    @pytest.mark.parametrize(
        "bc,code",
        [
            ({}, 3),  # no recognized bc form
            ({"separated": {"alpha": {"times_pi": 1}, "beta": 1}}, 3),  # bad angle
            ({"separated": {"alpha": -0.5, "beta": 1}}, 2),  # out of range
        ],
    )
    def test_bc_input_errors(self, tmp_path, capsys, bc, code):
        obj = {"equation": {"f": [1, 1, 1], "q": [0, 0], "w": [1, 1]}, "bc": bc}
        path = write(tmp_path / "p.json", obj)
        assert main(["spectrum", "-i", path]) == code
        json.loads(capsys.readouterr().err)  # machine readable

    def test_declared_n_mismatch(self, tmp_path, capsys):
        obj = {
            "equation": {"N": 5, "f": [1, 1, 1], "q": [0, 0], "w": [1, 1]},
            "bc": {"separated": {"alpha": 0.0, "beta": 1.0}},
        }
        path = write(tmp_path / "p.json", obj)
        assert main(["spectrum", "-i", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "BadLength"

    def test_family_kind_errors(self, tmp_path, capsys):
        path = write(tmp_path / "f.json", {"kind": "zigzag"})
        assert main(["sweep", "-f", path, "-o", str(tmp_path / "t.csv")]) == 3
        capsys.readouterr()
        path = write(tmp_path / "f2.json", {"kind": "builtin", "builtin": "ex7.7"})
        assert main(["sweep", "-f", path, "-o", str(tmp_path / "t.csv")]) == 2


class TestTolOverrides:
    def test_valid_override(self, tmp_path, capsys, monkeypatch):
        import slpkit

        monkeypatch.setenv("SLP_TOL_OVERRIDES", '{"cluster": 2e-6}')
        path = write(tmp_path / "p.json", ex31_problem_json(2.0))
        assert main(["spectrum", "-i", path]) == 0
        assert slpkit.TOL.cluster == 2e-6
        monkeypatch.setattr(slpkit.TOL, "cluster", 1e-6)

    def test_invalid_override_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLP_TOL_OVERRIDES", '{"cluster": -1.0}')
        path = write(tmp_path / "p.json", ex31_problem_json(2.0))
        assert main(["spectrum", "-i", path]) == 2

    def test_oversized_override_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLP_TOL_OVERRIDES", '{"cluster": 0.5}')
        path = write(tmp_path / "p.json", ex31_problem_json(2.0))
        assert main(["spectrum", "-i", path]) == 2

    @pytest.mark.parametrize("raw", ["[1]", '{"cluster": null}', '{"rank": 1e-10, "bogus": 1}'])
    def test_malformed_override_rejected_untouched(self, raw, tmp_path, monkeypatch, capsys):
        """A non-object, a non-numeric value or an unknown name exits 2
        with BadTolerances and leaves every tolerance as it was."""
        import slpkit

        before = dataclasses.asdict(slpkit.TOL)
        monkeypatch.setenv("SLP_TOL_OVERRIDES", raw)
        path = write(tmp_path / "p.json", ex31_problem_json(2.0))
        assert main(["spectrum", "-i", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "BadTolerances"
        assert dataclasses.asdict(slpkit.TOL) == before


class TestRoundTrip:
    def test_problem_json_lossless(self, rng):
        from conftest import random_problem

        for _ in range(25):
            p = random_problem(rng, n_max=6)
            p2 = problem_from_json(json.loads(json.dumps(problem_to_json(p))))
            assert p2.equation == p.equation
            assert np.array_equal(p2.bc.matrix, p.bc.matrix)
