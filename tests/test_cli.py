"""CLI harness tests: subcommands, exit codes, determinism, round trips."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallbody
from smallbody import cli, medium
from smallbody.cli import main
from smallbody.designer import choose_h_N
from reference import scene_command

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def run(tmp_path, command, scene_dict=None, scene_path=None, extra=()):
    out = tmp_path / "out"
    if scene_dict is not None:
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene_dict))
    code = main([command, "--scene", str(scene_path), "--out", str(out), *extra])
    return code, out


def base_scene(**overrides):
    scene = {
        "format_version": 1,
        "medium": {"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "resolution": 6, "k": 1.0},
        "alpha": [0, 0, 1],
    }
    scene.update(overrides)
    return scene


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestSolve:
    def test_empty_cloud_gives_incident_field(self, tmp_path):
        code, out = run(tmp_path, "solve", scene_path=SCENES / "empty_cloud.json")
        assert code == 0
        header, data = read_csv(out / "field.csv")
        u = data[:, 3] + 1j * data[:, 4]
        expected = np.exp(1j * data[:, 2])  # plane wave, k = 1, alpha = z
        np.testing.assert_allclose(u, expected, rtol=1e-12)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["M"] == 0 and meta["command"] == "solve"

    def test_single_hard_ball_far_field(self, tmp_path):
        code, out = run(tmp_path, "solve", scene_path=SCENES / "single_hard_ball.json")
        assert code == 0
        header, data = read_csv(out / "farfield.csv")
        theta = data[:, 0]
        amp = data[:, 2] + 1j * data[:, 3]
        k, a = 1.0, 0.05
        expected = (k ** 2 * a ** 3 / 3) * (1.5 * np.cos(theta) - 1.0)
        assert np.abs(amp - expected).max() <= 3 * k * a * np.abs(expected).max()

    def test_off_lattice_scene_is_the_same_on_the_stored_kernel_and_row_chunks(
            self, tmp_path, monkeypatch):
        # the shipped non-free off-lattice scene takes the stored free kernel
        # ("dense"), and with a store budget of 0 its row chunks ("gmres"):
        # the same output files, byte for byte, and the same iterations
        scene = SCENES / "hard_cloud_n0_ball_off_lattice.json"
        outs, metas = [], []
        for cap, solver in ((medium.STORE_MAX_ENTRIES, "dense"), (0, "gmres")):
            monkeypatch.setattr(medium, "STORE_MAX_ENTRIES", cap)
            code, out = run(tmp_path / solver, "solve", scene_path=scene)
            assert code == 0
            metas.append(json.loads((out / "metadata.json").read_text()))
            assert metas[-1]["solver"] == solver
            outs.append(out)
        assert metas[0]["iterations"] == metas[1]["iterations"]
        for name in ("solution.json", "field.csv", "farfield.csv", "centers.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_non_free_lattice_cloud_past_the_dense_cap(self, tmp_path):
        # 5000 impedance particles on one lattice in an n0 ball: past the
        # store budget of 4000^2 pair entries, the lattice FFT apply with the
        # grid's volume correction solves it
        scene = base_scene(
            medium={"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "resolution": 8, "k": 1.0,
                    "n0": {"type": "radial", "center": [0.5, 0.5, 0.5], "radius": 0.35,
                           "inside": 1.15, "outside": 1.0}},
            cloud={"kind": "impedance", "a": 1e-4, "h": 1.0, "N": 0.5},
            directions={"n_theta": 8, "n_phi": 16})
        code, out = run(tmp_path, "solve", scene)
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["M"] == 5000 and meta["solver"] == "lattice_fft"

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        code = main(["solve", "--scene", str(bad), "--out", str(out)])
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize("command,override,path", [
        ("solve", {"directions": {"n_theta": 1, "n_phi": 8}}, "scene.directions.n_theta"),
        ("solve", {"cloud": {"kind": "hard", "a": 0.01, "centers": [[0.5, 0.5]]}},
         "scene.cloud.centers[0]"),
        ("solve", {"points": "far"}, "scene.points"),
        ("solve", {"format_version": 2}, "scene.format_version"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "h": 1.0,
                             "N": {"type": "subbox", "hi": [1, 1, 1]}}}, "scene.cloud.N.lo"),
        ("limit", {"limit": {"p": {"type": "radial", "center": [0.5, 0.5, 0.5]}}},
         "scene.limit.p.radius"),
        ("limit", {"limit": {"p": {"type": "table", "im": [0.0] * 216}}}, "scene.limit.p.re"),
        ("limit", {"limit": {"p": {"type": "table", "re": ["x"] * 216}}}, "scene.limit.p.re[0]"),
        ("limit", {"limit": {"nu": 0.0, "max_iter": "ten"}}, "scene.limit.max_iter"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "centers": [[0.5, 0.5, 0.5]]}},
         "scene.cloud.zeta"),
        ("solve", {"cloud": 5}, "scene.cloud"),
        ("solve", {"cloud": {"kind": "hard", "a": 0.01, "centers": [[0.5, 0.5, 0.5]],
                             "beta": "x"}}, "scene.cloud.beta"),
        ("validate", {"medium": {"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
                                 "resolution": True, "k": 1.0}}, "scene.medium.resolution"),
        ("solve", {"directions": {"n_theta": 4.7, "n_phi": 8}}, "scene.directions.n_theta"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001,
                             "centers": [[0.2, 0.5, 0.5], [0.5, 0.5, 0.5], [0.8, 0.5, 0.5]],
                             "zeta": [1.0, 2.0]}}, "scene.cloud.zeta"),
        ("study", {"study": {"mode": "impedance", "h": 1.0, "N": 0.1, "a_sequence": 0.01}},
         "scene.study.a_sequence"),
        ("design", {"design": {"target_n": 1.0, "a": 1e-5, "verify": {"a_sequence": 0.5}}},
         "scene.design.verify.a_sequence"),
        ("validate", {"medium": {"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "resolution": 6,
                                 "k": 1.0, "no": 1.2}}, "scene.medium.no"),
        ("limit", {"limit": {"p": {"type": "constant", "valu": 0.5}}}, "scene.limit.p.valu"),
        ("limit", {"limit": {"p": {"real": 0.5}}}, "scene.limit.p.real"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "H": 1.0, "N": 0.05}},
         "scene.cloud.H"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "centers": [[0.5, 0.5, 0.5]],
                             "zeta": [{"real": 1}]}}, "scene.cloud.zeta[0].real"),
        ("limit", {"limit": {"nu": 0.0, "bta": -1.0}}, "scene.limit.bta"),
        ("design", {"design": {"target_n": 1.0, "a": 1e-5, "verfy": {"a_sequence": [1e-4]}}},
         "scene.design.verfy"),
        ("limit", {"limit": {"p": 0, "nu": 0}}, "scene.limit"),
        ("limit", {"limit": {"p": {"type": "bump", "width": 0, "amplitude": 0.05}}},
         "scene.limit.p.width"),
        ("limit", {"medium": {"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "resolution": 6,
                              "k": 1.0, "n0": float("inf")}, "limit": {"p": 0.0}},
         "scene.medium.n0"),
        ("limit", {"alpha": [float("nan"), 0, 1], "limit": {"p": 0.0}}, "scene.alpha[0]"),
        ("limit", {"limit": {"nu": 0.0, "max_iter": 0}}, "scene.limit.max_iter"),
        ("solve", {"cloud": {"kind": "hard", "a": 0, "centers": [[0.5, 0.5, 0.5]]}},
         "scene.cloud.a"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "centers": [[0.5, 0.5, 0.5]],
                             "zeta": [1.0], "N": 0.05}}, "scene.cloud.N"),
        ("solve", {"cloud": {"kind": "hard", "a": 0.01, "centers": [[0.5, 0.5, 0.5]],
                             "cell_size": 0.5}}, "scene.cloud.cell_size"),
        ("solve", {"cloud": {"kind": "hard", "a": 0.01, "centers": [[0.5, 0.5, 0.5]],
                             "zeta": [1.0]}}, "scene.cloud.zeta"),
        ("solve", {"cloud": {"kind": "hard", "a": 0.01, "nu": 1e-4, "h": 1.0}}, "scene.cloud.h"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "h": 1.0, "N": 0.05, "nu": 1e-4}},
         "scene.cloud.nu"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "h": 1.0, "N": 0.05,
                             "beta": -1.5}}, "scene.cloud.beta"),
        ("solve", {"cloud": {"kind": "impedance", "a": 0.001, "h": 1.0, "N": 0.05,
                             "zeta": [1.0]}}, "scene.cloud.zeta"),
        ("limit", {"limit": {"p": 0.0, "max_iter": 10}}, "scene.limit.max_iter"),
        ("limit", {"limit": {"p": 0.0, "beta": -1.5}}, "scene.limit.beta"),
        ("study", {"study": {"mode": "impedance", "h": 1.0, "N": 0.1, "a_sequence": [0.01],
                             "beta": -1.5}}, "scene.study.beta"),
        ("study", {"study": {"mode": "impedance", "h": 1.0, "N": 0.1, "a_sequence": [0.01],
                             "nu": 1e-4}}, "scene.study.nu"),
        ("study", {"study": {"mode": "hard", "nu": 1e-4, "a_sequence": [0.01], "N": 0.1}},
         "scene.study.N"),
    ], ids=["n_theta_1", "two_coordinate_center", "points_string", "format_version_2",
            "subbox_without_lo", "radial_without_radius", "table_without_re",
            "table_of_strings", "max_iter_not_integer", "centers_without_zeta",
            "cloud_not_object", "beta_string", "resolution_bool", "n_theta_not_integer",
            "zeta_count_mismatch", "study_a_sequence_number", "verify_a_sequence_number",
            "medium_misspelt_n0", "constant_misspelt_value", "complex_misspelt_re",
            "cloud_misspelt_h", "zeta_misspelt_re", "limit_misspelt_beta",
            "design_misspelt_verify", "limit_p_and_nu", "bump_width_0", "n0_infinity",
            "alpha_nan", "max_iter_0", "radius_0", "centers_with_N", "centers_with_cell_size",
            "hard_cloud_zeta", "hard_cloud_h", "impedance_density_nu", "impedance_cloud_beta",
            "impedance_density_zeta", "limit_p_with_max_iter", "limit_p_with_beta",
            "impedance_study_beta", "impedance_study_nu", "hard_study_N"])
    def test_bad_scene_input_exit_2(self, tmp_path, capsys, command, override, path):
        scene = base_scene(cloud={"kind": "hard", "a": 0.01, "centers": [[0.5, 0.5, 0.5]]})
        scene.update(override)
        code, out = run(tmp_path, command, scene_dict=scene)
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 2
        assert err["message"].startswith(path + ":")  # the JSON path of the bad value
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["not_utf8", "directory"])
    def test_unreadable_scene_exit_2(self, tmp_path, case):
        scene = tmp_path / "scene.json"
        if case == "not_utf8":
            scene.write_bytes(b'{"format_version": "\xff"}')
        else:
            scene.mkdir()
        code, out = run(tmp_path, "solve", scene_path=scene)
        assert code == 2
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2

    def test_out_that_cannot_be_created_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["solve", "--scene", str(SCENES / "empty_cloud.json"), "--out", str(taken)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --out {taken}:")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_exit_2(self, tmp_path, capsys, threads):
        # argparse refuses the count; an absent --threads means all cores
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "validate", scene_path=SCENES / "empty_cloud.json",
                extra=("--threads", threads))
        assert exc.value.code == 2
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_physics_violation_exit_3(self, tmp_path):
        scene = base_scene(cloud={"kind": "impedance", "a": 0.5, "h": 1.0, "N": 0.05})
        code, out = run(tmp_path, "solve", scene_dict=scene)  # ka = 0.5 > 0.1
        assert code == 3

    def test_probe_whose_field_overflows_exit_3(self, tmp_path):
        # the distance to a probe at 1e308 overflows to inf and exp(ikr) is
        # NaN, with no numpy warning on the way (the suite, like python -W
        # error, raises every warning), for a cloud's field and a limit's:
        # the run writes error.json alone
        for command, name in (("solve", "single_hard_ball"), ("limit", "limit_born_bump")):
            scene = json.loads((SCENES / f"{name}.json").read_text())
            scene["points"] = [[1e308, 1e308, 0.0]]
            (tmp_path / command).mkdir()
            code, out = run(tmp_path / command, command, scene_dict=scene)
            assert code == 3
            err = json.loads((out / "error.json").read_text())
            assert err["message"] == "field is not finite at 1 of 1 points"
            assert [p.name for p in out.iterdir()] == ["error.json"]

    def test_probe_within_d_or_on_a_limit_node_exit_3(self, tmp_path):
        # a probe within d of a centre (10 a = 0.5 for one ball) is refused
        # by the guard, and a limit's probe on a node of its density by the
        # kernel's coincident-point check: the run writes error.json alone
        ball = json.loads((SCENES / "single_hard_ball.json").read_text())
        limit = json.loads((SCENES / "limit_born_bump.json").read_text())
        node = medium.Grid((0, 0, 0), (1, 1, 1), (12, 12, 12)).nodes[5 * 144 + 5 * 12 + 5]
        for command, scene, point, error, message in (
                ("solve", ball, [0.0, 0.0, 0.4], "InvariantViolation",
                 "evaluation point within d = 0.5 of a particle center; "
                 "the point-particle reduction is not valid there"),
                ("limit", limit, node.tolist(), "SingularEvaluationError",
                 "Helmholtz kernel evaluated at coincident points")):
            scene["points"] = [point]
            (tmp_path / command).mkdir()
            code, out = run(tmp_path / command, command, scene_dict=scene)
            assert code == 3
            err = json.loads((out / "error.json").read_text())
            assert (err["error_type"], err["message"]) == (error, message)
            assert [p.name for p in out.iterdir()] == ["error.json"]

    @pytest.mark.parametrize("alpha,want", [([1e308, 1e308, 0], [0.5 ** 0.5, 0.5 ** 0.5, 0.0]),
                                            ([1e-320, 0, 0], [1.0, 0.0, 0.0])])
    def test_alpha_normalized_without_overflow_or_underflow(self, alpha, want):
        got = cli.parse_alpha({"alpha": alpha})
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-15

    def test_solution_and_centers_artifacts(self, tmp_path):
        code, out = run(tmp_path, "solve", scene_path=SCENES / "single_hard_ball.json")
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["kind"] == "hard"
        assert len(sol["effective_gradients"]) == 1
        assert len(sol["dipole_moments"][0]) == 3
        header, data = read_csv(out / "centers.csv")
        assert header == ["x", "y", "z"] and data.shape == (1, 3)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["iterations"] > 0 and "rcond" not in meta
        assert meta["solver"] == "dense"

    def test_determinism_byte_identical(self, tmp_path):
        code1, out1 = run(tmp_path / "r1", "solve", scene_path=SCENES / "single_hard_ball.json")
        code2, out2 = run(tmp_path / "r2", "solve", scene_path=SCENES / "single_hard_ball.json")
        code3, out3 = run(tmp_path / "r3", "solve", scene_path=SCENES / "single_hard_ball.json",
                          extra=("--threads", "3"))
        assert code1 == code2 == code3 == 0
        for name in ("field.csv", "farfield.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()


    def test_lattice_solve_threads_byte_identical(self, tmp_path):
        # 729 impedance particles on a 9^3 lattice: above the lattice crossover
        scene = base_scene(cloud={"kind": "impedance", "a": 1e-3, "h": 1.0, "N": 0.729},
                           directions={"n_theta": 8, "n_phi": 16})
        outs = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            outs.append(run(tmp_path / threads, "solve", scene_dict=scene,
                            extra=("--threads", threads)))
        (code1, out1), (code2, out2) = outs
        assert code1 == code2 == 0
        meta = json.loads((out1 / "metadata.json").read_text())
        assert meta["M"] == 729 and meta["solver"] == "lattice_fft"
        assert "rcond" not in meta and meta["iterations"] > 0
        for name in ("field.csv", "farfield.csv", "centers.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestLimit:
    def test_zero_potential_dumps_incident(self, tmp_path):
        scene = base_scene(limit={"p": 0.0})
        code, out = run(tmp_path, "limit", scene_dict=scene)
        assert code == 0
        _, data = read_csv(out / "grid_field.csv")
        u = data[:, 3] + 1j * data[:, 4]
        np.testing.assert_allclose(u, np.exp(1j * data[:, 2]), rtol=1e-12)
        assert (out / "farfield.csv").exists()

    def test_thread_count_does_not_change_output(self, tmp_path):
        for scene, names in (("limit_born_bump", ("grid_field.csv", "field.csv", "farfield.csv")),
                             ("limit_hard_bump", ("grid_field.csv", "field.csv", "farfield.csv"))):
            outs = []
            for threads in ("1", "2"):
                code, out = run(tmp_path / scene / threads, "limit",
                                scene_path=SCENES / f"{scene}.json", extra=("--threads", threads))
                assert code == 0
                outs.append(out)
            assert sorted(p.name for p in outs[0].glob("*.csv")) == sorted(names)
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            meta = json.loads((outs[0] / "metadata.json").read_text())
            assert meta["residual"] <= 1e-10 and meta["iterations"] >= 1

    def test_born_bump_amplitude_matches_transform(self, tmp_path):
        code, out = run(tmp_path, "limit", scene_path=SCENES / "limit_born_bump.json")
        assert code == 0
        _, data = read_csv(out / "farfield.csv")
        amp = data[:, 2] + 1j * data[:, 3]
        # forward direction: A ~ -p_hat(0)/(4 pi) with p_hat(0) = amplitude * (16/15 w)^3
        phat0 = 0.05 * (0.3 * 16 / 15) ** 3
        forward = amp[np.argmax(np.cos(data[:, 0]))]
        assert forward.real == pytest.approx(-phat0 / (4 * np.pi), rel=0.02)

    def test_hard_limit_volume_density_exit_3(self, tmp_path):
        # nu obeys the bound of the clouds, (nu/c3)^(1/3) <= 0.1
        scene = base_scene(
            medium={"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "resolution": 10, "k": 1.0},
            limit={"nu": {"type": "bump", "center": [0.5, 0.5, 0.5], "width": 0.3,
                          "amplitude": 20.0}, "beta": -1.5})
        code, out = run(tmp_path, "limit", scene_dict=scene)
        assert code == 3
        err = json.loads((out / "error.json").read_text())
        assert "volume density too large" in err["message"]


def python_fresh(code, *args, env=()):
    """Run code in a fresh interpreter that imports smallbody from this tree,
    with the variables ``env`` added to the environment; returns its
    standard output."""
    src = str(Path(smallbody.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("level,code", [
    ("debug", 0), ("Info", 0), ("WARNING", 0), ("10", 2), ("bogus", 2)])
def test_log_level_names_in_any_case_and_an_unknown_one_exit_2(tmp_path, level, code):
    # in a fresh process: under pytest the root logger has handlers, so
    # basicConfig would not read the level at all
    printed = python_fresh(
        "import logging, sys; from smallbody.cli import main; sys.stderr = sys.stdout; "
        "code = main(sys.argv[1:]); print(code, logging.getLogger().level)",
        "validate", "--scene", str(SCENES / "empty_cloud.json"), "--out", str(tmp_path / "out"),
        env={"SMALLBODY_LOG": level}).splitlines()
    if code:
        assert printed == [f"error: SMALLBODY_LOG={level}: not a log level name",
                           f"2 {logging.WARNING}"]
        assert not (tmp_path / "out").exists()
    else:
        assert printed[-1] == f"0 {logging.getLevelName(level.upper())}"


def run_fresh(tmp_path, command, scene, *modules):
    """Run the CLI in a fresh process; it fails if any of ``modules`` or a
    submodule of them was imported."""
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    python_fresh("import sys; from smallbody.cli import main; code = main(sys.argv[1:]); "
                 f"found = [m for m in sys.modules "
                 f"if any(m == n or m.startswith(n + '.') for n in {modules!r})]; "
                 "sys.exit(code or (found and f'imported {found}') or 0)",
                 command, "--scene", str(tmp_path / "scene.json"), "--out", str(tmp_path / "out"))
    return json.loads((tmp_path / "out" / "metadata.json").read_text())


LATTICE_CLOUD = {"kind": "impedance", "a": 1e-3, "h": 1.0, "N": 0.729}
# 120 hard balls off any lattice in an n0 ball: a non-free cloud that stores its matrix
DENSE_HARD_IN_N0 = {**json.loads((SCENES / "hard_cloud_n0_ball_off_lattice.json").read_text()),
                    "directions": {"n_theta": 8, "n_phi": 16}}


@pytest.mark.parametrize("command,scene", [
    ("limit", json.loads((SCENES / "limit_born_bump.json").read_text())),
    ("solve", base_scene(cloud=LATTICE_CLOUD, directions={"n_theta": 8, "n_phi": 16}))],
    ids=["limit", "lattice_solve"])
def test_box_ffts_do_not_import_scipy_fft(tmp_path, command, scene):
    # a free-grid limit and a free lattice solve run their FFTs on numpy.fft;
    # importing scipy.fft would cost about 0.03 s of each run, in a fresh process
    meta = run_fresh(tmp_path, command, scene, "scipy.fft")
    assert meta.get("solver", "lattice_fft") == "lattice_fft"  # the solve took the FFT path


@pytest.mark.parametrize("command,scene,solver", [
    ("solve", base_scene(cloud=LATTICE_CLOUD, directions={"n_theta": 8, "n_phi": 16}),
     "lattice_fft"),
    ("solve", DENSE_HARD_IN_N0, "dense"),
    ("limit", json.loads((SCENES / "limit_born_bump.json").read_text()), None),
    ("validate", base_scene(cloud=LATTICE_CLOUD), None)],
    ids=["lattice_solve", "dense_hard_solve_in_n0", "limit", "validate"])
def test_cli_runs_do_not_import_scipy_spatial(tmp_path, command, scene, solver):
    # particle spacing and the far-zone guard are numpy searches; importing
    # scipy.spatial would cost about 0.1 s and 7.6 MB of each run
    meta = run_fresh(tmp_path, command, scene, "scipy.spatial")
    assert meta.get("solver") == solver
    assert command == "limit" or meta.get("cloud", meta)["M"] > 0


def test_cli_import_loads_no_scipy():
    python_fresh("import sys, smallbody.cli; "
                 "found = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                 "sys.exit(found and f'imported {found}' or 0)")


@pytest.mark.parametrize("path", sorted(SCENES.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_scenes_do_not_import_scipy_linalg_or_sparse(tmp_path, path):
    # no shipped scene imports any scipy module: every solve is the
    # package's own GMRES, and scipy.linalg and scipy.sparse cost about
    # 0.27 s and 28 MB of start-up
    keys = json.loads(path.read_text())
    run_fresh(tmp_path, scene_command(keys), keys, "scipy")


def test_study_is_byte_identical_over_blas_threads(tmp_path):
    # every shipped scene writes the same CSV and JSON files, all but
    # metadata.json (it holds wall times), at 1 and 2 OpenBLAS threads:
    # every particle system runs GMRES on its stored free kernel, whose
    # matrix-vector products keep their bits at any thread count (a dense
    # LU's did not), and so do the node tables of the coupled system in the
    # non-free scenes; one fresh process per thread count runs every scene,
    # without the CLI's setting of one BLAS thread, so that the library's
    # products at the environment's thread count are the ones compared
    scenes = sorted(SCENES.glob("*.json"))
    for threads in ("1", "2"):
        runs = [[scene_command(json.loads(scene.read_text())), "--scene", str(scene),
                 "--out", str(tmp_path / threads / scene.stem)] for scene in scenes]
        python_fresh("import json, sys; from smallbody import cli; cli._openblas = lambda: None; "
                     "sys.exit(any(cli.main(args) for args in json.loads(sys.argv[1])))",
                     json.dumps(runs), env={"OPENBLAS_NUM_THREADS": threads})
    assert len(scenes) >= 8
    for scene in scenes:
        outs = [tmp_path / threads / scene.stem for threads in ("1", "2")]
        names = [sorted(p.name for p in out.iterdir()
                        if p.suffix in (".csv", ".json") and p.name != "metadata.json")
                 for out in outs]
        assert names[0] and names[0] == names[1], scene
        for name in names[0]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (scene, name)


TESTS = Path(__file__).resolve().parent


def test_stored_tables_keep_the_bits_of_their_row_chunks_at_two_blas_threads():
    # the library's own checks that a product with a stored table has the
    # bits of its row chunks' products, rerun in a fresh process at two
    # OpenBLAS threads: the suite's process runs the environment's count,
    # which may be one, and the CLI keeps BLAS at one
    python_fresh("import sys, pytest; sys.exit(pytest.main(sys.argv[1:]))",
                 "-q", "-p", "no:cacheprovider",
                 f"{TESTS / 'test_medium.py'}::TestChunkBudget",
                 f"{TESTS / 'test_foldy_impedance.py'}::TestSolver::test_gmres_matches_dense",
                 f"{TESTS / 'test_foldy_impedance.py'}::TestNonFreeLattice::"
                 "test_node_table_past_the_budget_is_formed_on_every_apply",
                 f"{TESTS / 'test_foldy_neumann.py'}::TestScaleLaw::test_matrix_free_matches_dense",
                 env={"OPENBLAS_NUM_THREADS": "2"})


@pytest.mark.parametrize("command,scene,solver", [
    ("limit", json.loads((SCENES / "limit_born_bump.json").read_text()), None),
    ("limit", json.loads((SCENES / "limit_hard_bump.json").read_text()), None),
    ("solve", base_scene(cloud=LATTICE_CLOUD, directions={"n_theta": 8, "n_phi": 16}),
     "lattice_fft"),
    ("solve", DENSE_HARD_IN_N0, "dense")],
    ids=["limit_born_bump", "limit_hard_bump", "lattice_solve", "hard_cloud_in_n0"])
def test_gmres_runs_do_not_load_lapack(tmp_path, command, scene, solver):
    # no run factors, a non-free background's included, so none loads
    # scipy's LAPACK wrappers
    meta = run_fresh(tmp_path, command, scene, "scipy.linalg._flapack")
    assert meta.get("solver") == solver


@pytest.mark.parametrize("command,scene", [
    ("solve", "single_hard_ball.json"), ("limit", "limit_born_bump.json"),
    ("design", "design_subbox.json"), ("study", "study_impedance.json"),
    ("validate", "empty_cloud.json")])
def test_metadata_records_peak_rss_and_minor_page_faults(tmp_path, command, scene):
    # every command writes the process's peak resident set (VmHWM) and the
    # minor page faults taken over the command
    code, out = run(tmp_path, command, scene_path=SCENES / scene)
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == command
    assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0
    assert isinstance(meta["minor_page_faults"], int) and meta["minor_page_faults"] >= 0
    # and the BLAS that ran, which the CLI keeps on the calling thread
    assert meta["blas"] is meta["blas_threads"] is None or meta["blas_threads"] == 1


BLAS_SCENE = SCENES / "hard_cloud_n0_ball_off_lattice.json"  # stored kernel and node table


def test_a_blas_without_the_openblas_symbols_is_left_as_it_is(tmp_path):
    # two OpenBLAS threads from the environment: a run sets numpy's OpenBLAS
    # to one, so its one thread pool is the box FFTs'; another BLAS, or an
    # older numpy's OpenBLAS with other symbol names: the run sets nothing,
    # records null and writes the same files
    hide = ("import ctypes, sys\n"
            "class CDLL(ctypes.CDLL):\n"
            "    def __getattr__(self, name):\n"
            "        if name.startswith('scipy_openblas'):\n"
            "            raise AttributeError(name)\n"
            "        return super().__getattr__(name)\n"
            "ctypes.CDLL = CDLL\n")
    run = "from smallbody.cli import main; sys.exit(main(sys.argv[1:]))"
    outs = [tmp_path / "set", tmp_path / "hidden"]
    for out, code in zip(outs, ("import sys; " + run, hide + run)):
        python_fresh(code, "solve", "--scene", str(BLAS_SCENE), "--out", str(out),
                     env={"OPENBLAS_NUM_THREADS": "2"})
    metas = [json.loads((out / "metadata.json").read_text()) for out in outs]
    assert (metas[0]["blas_threads"], metas[1]["blas"], metas[1]["blas_threads"]) == (1, None, None)
    assert metas[0]["blas"].startswith("OpenBLAS")
    for meta in metas:
        for key in ("wall_time_s", "peak_rss_mb", "minor_page_faults", "blas", "blas_threads"):
            del meta[key]
    assert metas[0] == metas[1]
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "metadata.json")
    assert names == ["centers.csv", "farfield.csv", "field.csv", "solution.json"]
    assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "metadata.json")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_allocator_setting_skips_a_c_library_without_mallopt(monkeypatch):
    # musl, macOS and others: the run goes on with the allocator as it is
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert cli._keep_freed_heap.__wrapped__() is None


def test_kernel_chunks_stay_below_the_mmap_threshold():
    # a chunk above the threshold is mapped afresh on every allocation
    # instead of reusing freed heap
    assert 16 * medium.CHUNK_ENTRIES < cli.MMAP_THRESHOLD


class TestDesign:
    def test_trivial_design(self, tmp_path):
        scene = base_scene(design={"target_n": 1.0, "a": 1e-5})
        code, out = run(tmp_path, "design", scene_dict=scene)
        assert code == 0
        data = json.loads((out / "design.json").read_text())
        assert data["feasibility"]["M"] == 0
        assert all(v == {"re": 0.0, "im": 0.0} for v in data["p"])

    def test_reference_cell_counts(self, tmp_path):
        scene = {
            "format_version": 1,
            "medium": {"box": {"lo": [0, 0, 0], "hi": [0.01, 0.01, 0.01]},
                       "resolution": 4, "k": 1.0},
            "alpha": [0, 0, 1],
            "design": {"target_n": {"type": "constant", "value": {"re": 1.0, "im": 0.1}},
                       "a": 1e-5},
        }
        code, out = run(tmp_path, "design", scene_dict=scene)
        assert code == 0
        data = json.loads((out / "design.json").read_text())
        # branch E with p2 = -1e-4 k^2 realizes some N; cloud is reproducible
        assert len(data["cloud"]["centers"]) == data["feasibility"]["M"]
        # every particle is a ball: (c1, c2, c3) = (4 pi, 16 pi^2, 4 pi / 3)
        assert data["cloud"]["shape_constants"] == [4 * np.pi, 16 * np.pi ** 2, 4 * np.pi / 3]

    def test_reference_cell_design_feasibility(self, tmp_path):
        # the classic numbers: b = 1e-2 box, a = 1e-5, N = 1e4 from branch B
        # (p1 = 2 pi 1e4 real), giving 10^3 particles per cell at d/a = 100
        scene = {
            "format_version": 1,
            "medium": {"box": {"lo": [0, 0, 0], "hi": [0.01, 0.01, 0.01]},
                       "resolution": 4, "k": 1.0},
            "alpha": [0, 0, 1],
            "design": {"target_n": 1.0 - 2 * np.pi * 1e4, "a": 1e-5},
        }
        code, out = run(tmp_path, "design", scene_dict=scene)
        assert code == 0
        data = json.loads((out / "design.json").read_text())
        assert data["feasibility"]["M"] == 1000
        assert data["feasibility"]["d_over_a"] == pytest.approx(100.0, rel=1e-9)
        assert data["feasibility"]["volume_fraction"] == pytest.approx(4.18879e-6, rel=1e-4)
        assert data["N"][0] == pytest.approx(1e4, rel=1e-12)

    def test_design_round_trip_cloud_json(self, tmp_path):
        code, out = run(tmp_path, "design", scene_path=SCENES / "design_subbox.json")
        assert code == 0
        data = json.loads((out / "design.json").read_text())
        assert data["cloud"]["kind"] == "impedance"
        assert len(data["cloud"]["centers"]) == data["feasibility"]["M"]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["verification"]["passed"] is True
        _, vdata = read_csv(out / "verification.csv")
        assert (np.diff(vdata[:, 3]) < 0).all()

    def test_empty_clouds_fail_a_nontrivial_design(self, tmp_path):
        # radii too large to place a particle leave the n = 1.2 target unrealized
        scene = json.loads((SCENES / "design_subbox.json").read_text())
        scene["design"]["verify"]["a_sequence"] = [2e-3, 1.5e-3, 1e-3]
        code, out = run(tmp_path, "design", scene_dict=scene)
        assert code == 0
        verification = json.loads((out / "metadata.json").read_text())["verification"]
        assert [row["M"] for row in verification["table"]] == [0, 0, 0]
        assert verification["passed"] is False

    def test_radius_over_the_cap_fails_design_and_is_noted_by_study(self, tmp_path):
        # the second radius places M = 397,888 particles, over the 200,000 cap:
        # a design verification raises it, a study of the same (h, N) notes it
        scene = json.loads((SCENES / "design_subbox.json").read_text())
        a_sequence = [2.4868e-4, 5e-9]
        scene["design"]["verify"]["a_sequence"] = a_sequence
        (tmp_path / "design").mkdir()
        code, out = run(tmp_path / "design", "design", scene_dict=scene)
        assert code == 3
        assert [p.name for p in out.iterdir()] == ["error.json"]
        message = json.loads((out / "error.json").read_text())["message"]
        assert "exceeds the desk-scale cap" in message

        (h,), (n,) = choose_h_N(np.array([1.0 - 1.2 + 0j]))  # k = 1: p = n0 - n in the sub-box
        box = {"type": "subbox", "lo": [0.25] * 3, "hi": [0.75] * 3}
        scene["study"] = {"mode": "impedance", "a_sequence": a_sequence, "cell_size": 0.25,
                          "h": {**box, "inside": {"re": float(h.real), "im": float(h.imag)}},
                          "N": {**box, "inside": float(n)}}
        del scene["design"]
        (tmp_path / "study").mkdir()
        code, out = run(tmp_path / "study", "study", scene_dict=scene)
        assert code == 0
        notes = [s["note"] for s in json.loads((out / "study.json").read_text())["scales"]]
        assert notes[0] == "" and "exceeds the desk-scale cap" in notes[1]


class TestStudy:
    def test_impedance_study_strictly_decreasing(self, tmp_path):
        code, out = run(tmp_path, "study", scene_path=SCENES / "study_impedance.json")
        assert code == 0
        _, data = read_csv(out / "study.csv")
        e_max = data[:, 3]
        assert (np.diff(e_max) < 0).all()
        summary = json.loads((out / "study.json").read_text())
        assert summary["count_exponent"] == pytest.approx(-1.0, abs=0.1)

    def test_failed_scale_writes_null_not_nan(self, tmp_path):
        # ka = 0.5 fails the first scale, and one scale is left for the
        # exponents: study.json holds null where study.csv holds nan, and a
        # parser that refuses NaN and Infinity reads it
        scene = json.loads((SCENES / "study_impedance.json").read_text())
        scene["study"]["a_sequence"] = [0.5, 0.02]
        code, out = run(tmp_path, "study", scene_dict=scene)
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        data = json.loads((out / "study.json").read_text(), parse_constant=refuse)
        assert data["count_exponent"] is None and data["charge_exponent"] is None
        failed, kept = data["scales"]
        assert failed["note"].startswith("InvariantViolation")
        assert failed["e_max"] is None and failed["d"] is None and failed["M"] == 0
        assert kept["note"] == "" and kept["e_max"] > 0
        _, rows = read_csv(out / "study.csv")
        assert np.isnan(rows[0, 2:7]).all() and np.isfinite(rows[1]).all()

    def test_study_json_reloads(self, tmp_path):
        code, out = run(tmp_path, "study", scene_path=SCENES / "study_impedance.json")
        data = json.loads((out / "study.json").read_text())
        assert data["mode"] == "impedance" and len(data["scales"]) == 3
        assert data["format_version"] == 1


class TestValidate:
    def test_valid_scene(self, tmp_path):
        code, out = run(tmp_path, "validate", scene_path=SCENES / "empty_cloud.json")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["passive"] is True and rep["cloud"]["flags"] == []

    def test_medium_within_the_passivity_tolerance_reports_passive(self, tmp_path):
        # k = 10, n0 = 1 - 5e-16i: Im q0 = 5e-14 is within the medium's
        # 1e-14 k^2, so every command accepts the medium and validate calls it
        # passive
        scene = base_scene(medium={"box": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "resolution": 6,
                                   "k": 10.0, "n0": {"re": 1.0, "im": -5e-16}})
        code, out = run(tmp_path, "validate", scene_dict=scene)
        assert code == 0
        assert json.loads((out / "report.json").read_text())["passive"] is True

    @pytest.mark.parametrize("section,value", [
        ("limit", {"p": 0.0}), ("directions", {"n_theta": 8, "n_phi": 16})])
    def test_section_the_command_does_not_read_exit_2(self, tmp_path, section, value):
        scene = json.loads((SCENES / "empty_cloud.json").read_text())
        scene[section] = value
        code, out = run(tmp_path, "validate", scene_dict=scene)
        assert code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["message"] == f"scene.{section}: not read by validate"

    def test_grid_too_large_to_allocate_exit_4(self, tmp_path, capsys):
        # 10^15 nodes: the first node array (7.11 PiB) fails at once
        scene = json.loads((SCENES / "empty_cloud.json").read_text())
        scene["medium"]["resolution"] = 100000
        code, out = run(tmp_path, "validate", scene_dict=scene)
        assert code == 4
        err = json.loads((out / "error.json").read_text())
        assert err["exit_code"] == 4 and err["message"].startswith("Unable to allocate")
        assert not (out / "report.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_invalid_cloud_reports_and_exits_3(self, tmp_path):
        scene = base_scene(cloud={"kind": "impedance", "a": 0.01,
                                  "centers": [[0.5, 0.5, 0.5], [0.52, 0.5, 0.5]],
                                  "zeta": [{"re": 1.0, "im": 0.0}]})
        code, out = run(tmp_path, "validate", scene_dict=scene)
        assert code == 3
        rep = json.loads((out / "report.json").read_text())
        assert any("spacing" in f for f in rep["cloud"]["flags"])


class TestWriters:
    """The fast writers give the bytes of json.dump, each non-finite float
    written as null, and of repr(float(x))."""

    VALUES = np.array([-0.0, 5e-324, 1e20, 0.1, -1.5e-300, 2.0 ** 52, 1 / 3, -7.0])

    @staticmethod
    def reference_json(path, data):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"format_version": 1, **data}, fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")

    @staticmethod
    def objects(values):
        values = np.asarray(values)
        if values.ndim:
            return [TestWriters.objects(v) for v in values]
        return {part: x if np.isfinite(x) else None
                for part, x in (("re", float(values.real)), ("im", float(values.imag)))}

    @pytest.mark.parametrize("special", [None, np.nan, np.inf, -np.inf])
    def test_json_bytes_equal_json_dump(self, tmp_path, special):
        z = self.VALUES + 1j * self.VALUES[::-1]
        if special is not None:
            z[3] = complex(special, 0.25)
        blocks = {"values": z, "rows": z.reshape(4, 2), "cube": z.reshape(2, 2, 2),
                  "one": z[:1], "empty": z[:0], "empty_rows": z[:0].reshape(0, 3)}
        meta = {"nested": {"x": [1, 2.5, None, True], "s": "aé\n\"b\""}, "empty": {}}
        x = 0.75 if special is None else special  # a plain float, in a list and a dict
        data = {**{k: np.asarray(v, dtype=complex) for k, v in blocks.items()},
                "meta": meta, "list": [], "table": [{"b": 0.1, "a": -0.0, "c": x}],
                "mixed": {"v": [0.5, x], "w": np.asarray(z[2:4], dtype=complex)}, "x": x}
        x = x if np.isfinite(x) else None
        plain = {**{k: self.objects(v) for k, v in blocks.items()},
                 "meta": meta, "list": [], "table": [{"b": 0.1, "a": -0.0, "c": x}],
                 "mixed": {"v": [0.5, x], "w": self.objects(z[2:4])}, "x": x}
        cli.write_json(tmp_path / "fast.json", data)
        self.reference_json(tmp_path / "ref.json", plain)
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_csv_bytes_equal_repr_of_each_float(self, tmp_path):
        cols = [self.VALUES, np.arange(8), np.float32(0.1) * np.ones(8, dtype=np.float32),
                np.append(self.VALUES[:5], [np.nan, np.inf, -np.inf])]
        self.assert_csv_is_repr(tmp_path, cols)

    @staticmethod
    def assert_csv_is_repr(tmp_path, cols):
        header = [f"c{i}" for i in range(len(cols))]
        cli.write_csv(tmp_path / "t.csv", header, cols)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in zip(*cols))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_csv_repeated_and_signed_values(self, tmp_path):
        # equal floats of distinct bits (0.0, -0.0; NaN payloads) each keep their text
        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
        col = np.array([0.0, -0.0, np.nan, 0.1, np.nan, -np.inf, 0.0, np.inf, -0.0,
                        payload_nan, -np.nan, 0.1, np.inf, 0.1])
        self.assert_csv_is_repr(tmp_path, [col, col[::-1], np.full(len(col), -0.0)])

    def test_csv_zero_rows(self, tmp_path):
        # the centers.csv of an empty cloud
        self.assert_csv_is_repr(tmp_path, [np.zeros(0)] * 3)
        assert (tmp_path / "t.csv").read_text() == "c0,c1,c2\n"

    def test_csv_longer_than_one_block(self, tmp_path):
        n = 2 * cli.CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        self.assert_csv_is_repr(tmp_path, [np.arange(n) % 7 * 0.1, rng.normal(size=n),
                                           np.repeat([-0.0, 1 / 3], [n - 2, 2])])

    def test_json_repeated_complex_value(self, tmp_path):
        # the shape of solve's coupling: one value for every particle
        z = np.full(1600, 0.1 - 1.7e-5j)
        cli.write_json(tmp_path / "fast.json", {"coupling": np.asarray(z, dtype=complex)})
        self.reference_json(tmp_path / "ref.json", {"coupling": self.objects(z)})
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
