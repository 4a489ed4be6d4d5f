import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import numrad
import numrad.cli
import numrad.harness
from numrad.bounds import BOUND_IDS, bound_spec
from numrad.cli import _load_config, build_parser, main
from numrad.errors import InvalidFunctionError, ToleranceUnreachableError
from numrad.matrixio import read_matrix, write_matrix


def write_mat(tmp_path, name, data):
    path = tmp_path / name
    write_matrix(path, np.asarray(data, dtype=complex))
    return str(path)


def parse_kv(line):
    tokens = line.split()
    return tokens[0], dict(t.split("=", 1) for t in tokens[1:])


class TestMatrixIO:
    def test_round_trip_bit_exact(self, tmp_path):
        g = np.random.default_rng(0)
        m = g.standard_normal((3, 4)) + 1j * g.standard_normal((3, 4))
        path = tmp_path / "m.json"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back, m)

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.array([[1.5 + 0.25j]]))
        payload = json.loads(path.read_text())
        assert payload == {"rows": 1, "cols": 1, "data": [[1.5, 0.25]]}

    def test_rejects_bad_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
        from numrad.errors import MatrixFileError
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    def test_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1, null]]}')
        from numrad.errors import MatrixFileError
        with pytest.raises(MatrixFileError):
            read_matrix(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                     complex(math.inf, 0.0)])
    def test_write_refuses_nonfinite(self, tmp_path, bad):
        from numrad.errors import MatrixFileError
        path = tmp_path / "bad.json"
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        with pytest.raises(MatrixFileError, match="finite"):
            write_matrix(path, m)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
    def test_write_refuses_empty_sides(self, tmp_path, shape):
        from numrad.errors import MatrixFileError
        path = tmp_path / "empty.json"
        with pytest.raises(MatrixFileError, match="sides >= 1"):
            write_matrix(path, np.zeros(shape, dtype=complex))
        assert not path.exists()


class TestOmegaCommand:
    def test_nilpotent(self, tmp_path, capsys):
        path = write_mat(tmp_path, "n.json", [[0, 1], [0, 0]])
        assert main(["omega", path, "--tol", "1e-8"]) == 0
        prefix, kv = parse_kv(capsys.readouterr().out.strip())
        assert prefix == "omega"
        assert float(kv["lo"]) == pytest.approx(0.5, abs=1e-8)
        assert float(kv["hi"]) == pytest.approx(0.5, abs=1e-8)
        # 16 grid angles at least, two per eigensolve
        assert int(kv["evals"]) >= 16 and int(kv["evals"]) % 2 == 0

    def test_zero_matrix(self, tmp_path, capsys):
        path = write_mat(tmp_path, "z.json", np.zeros((2, 2)))
        assert main(["omega", path]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert float(kv["lo"]) == 0.0 and float(kv["hi"]) == 0.0
        assert kv["evals"] == "0" and kv["rounds"] == "0"

    def test_prints_rounds(self, tmp_path, capsys):
        # the 3x3 shift takes one splitting round at tol 1e-8, then the
        # certificate closes it
        m = np.eye(3, k=1).tolist()
        path = write_mat(tmp_path, "n.json", m)
        assert main(["omega", path, "--tol", "1e-8"]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        cert = numrad.omega(m, 1e-8)
        assert (int(kv["evals"]), int(kv["rounds"])) == (cert.evals, cert.rounds)
        assert cert.rounds > 0

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["omega", str(path)]) == 2

    @pytest.mark.parametrize("text", (
        '{"rows": 1.9, "cols": "1", "data": [[2, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[true, false]]}',
        '{"rows": true, "cols": 1, "data": [[2, 0]]}',
        '{"rows": 2.0, "cols": 1, "data": [[2, 0], [1, 0]]}',
        '{"rows": 0, "cols": 1, "data": []}',
        '{"cols": 1, "data": [[2, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400),
    ), ids=("float-and-string-sizes", "bool-entry", "bool-rows", "float-rows",
            "zero-rows", "no-rows", "int-beyond-float-range"))
    def test_bad_matrix_file_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["omega", str(path)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_non_square_exit_3(self, tmp_path):
        path = write_mat(tmp_path, "r.json", np.zeros((2, 3)))
        assert main(["omega", path]) == 3

    def test_nan_tolerance_exit_3_promptly(self, tmp_path):
        # a NaN width never lets a cell split; run in a child process so a
        # regression fails on the timeout instead of hanging the suite
        path = write_mat(tmp_path, "n.json", [[0, 1], [0, 0]])
        src = str(Path(numrad.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "numrad.cli", "omega", path,
                               "--tol", "nan"], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 3
        assert "tolerance" in done.stderr

    @pytest.mark.parametrize("error", (ToleranceUnreachableError, InvalidFunctionError))
    def test_numerical_failure_exit_4(self, tmp_path, capsys, monkeypatch, error):
        path = write_mat(tmp_path, "n.json", [[0, 1], [0, 0]])

        def failing(*args, **kwargs):
            raise error("planted failure")

        monkeypatch.setattr(numrad.cli, "omega", failing)
        assert main(["omega", path]) == 4
        assert "planted failure" in capsys.readouterr().err


class TestBlasThreads:
    """Importing numrad pins OpenBLAS to one thread unless the variable is set."""

    @pytest.mark.parametrize("preset,expected", ((None, "1"), ("3", "3")))
    def test_default_and_opt_out(self, preset, expected):
        src = str(Path(numrad.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, numrad; print(os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == expected

    def test_suite_process_is_pinned(self):
        # tests/conftest.py sets the variable before numpy loads, so every
        # OpenBLAS in this process, numpy's and scipy's, runs one thread
        if os.environ["OPENBLAS_NUM_THREADS"] != "1":
            pytest.skip("OPENBLAS_NUM_THREADS was set before the suite ran")
        import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
        try:
            with open("/proc/self/maps") as maps:
                paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        except OSError:
            pytest.skip("no /proc/self/maps to find the loaded OpenBLAS in")
        threads = {}
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                get = getattr(lib, name, None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    threads[path] = get()
                    break
        if not threads:
            pytest.skip("numpy and scipy are not linked against OpenBLAS")
        assert set(threads.values()) == {1}, threads


class TestOmegaPCommand:
    def test_single_matches_omega(self, tmp_path, capsys):
        g = np.random.default_rng(1)
        m = (g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3)))
        path = write_mat(tmp_path, "m.json", m)
        assert main(["omega", path, "--tol", "1e-9"]) == 0
        _, kv_omega = parse_kv(capsys.readouterr().out.strip().split("\n")[0])
        assert main(["omega-p", path, "--p", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        _, kv = parse_kv(lines[0])
        assert float(kv["value"]) == pytest.approx(float(kv_omega["lo"]), abs=1e-6)
        witness = json.loads(lines[1].split(" ", 1)[1])
        assert len(witness) == 3

    def test_two_identities(self, tmp_path, capsys):
        p1 = write_mat(tmp_path, "i1.json", np.eye(2))
        p2 = write_mat(tmp_path, "i2.json", np.eye(2))
        assert main(["omega-p", p1, p2, "--p", "2"]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip().split("\n")[0])
        assert float(kv["value"]) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert kv["converged"] == "true"

    def test_dimension_mismatch_exit_3(self, tmp_path):
        p1 = write_mat(tmp_path, "a.json", np.eye(2))
        p2 = write_mat(tmp_path, "b.json", np.eye(3))
        assert main(["omega-p", p1, p2]) == 3

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_nonpositive_restarts_exit_3(self, tmp_path, restarts):
        path = write_mat(tmp_path, "i.json", np.eye(2))
        assert main(["omega-p", path, "--restarts", restarts]) == 3

    def test_infinite_tolerance_exit_3(self, tmp_path, capsys):
        # accepted, it would print a random start of the shift pair as converged
        path = write_mat(tmp_path, "shift.json", np.eye(2, k=1))
        assert main(["omega-p", path, path, "--tol", "inf"]) == 3
        out, err = capsys.readouterr()
        assert "converged" not in out
        assert "tolerance" in err


class TestBoundCommand:
    def test_main1_scalar(self, tmp_path, capsys):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "main1.v1", "--r", "1", "--alpha", "0.5",
                     path, path]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert float(kv["value"]) == pytest.approx(1.0, abs=1e-10)
        assert kv["ok"] == "true"

    def test_main11_as_stated_counterexample(self, tmp_path, capsys):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "main11.v1", "--r", "1", "--alpha", "0.5",
                     "--p", "2", "--constant-mode", "as_stated", path, path]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert float(kv["value"]) == pytest.approx(0.5, abs=1e-12)
        assert kv["ok"] == "false"

    def test_main11_default_mode_ok(self, tmp_path, capsys):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "main11.v1", path, path]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert float(kv["value"]) == pytest.approx(2.0, abs=1e-12)
        assert kv["ok"] == "true"

    def test_th1_diagonal(self, tmp_path, capsys):
        a = write_mat(tmp_path, "a.json", [[2.0]])
        z = write_mat(tmp_path, "z.json", [[0.0]])
        d = write_mat(tmp_path, "d.json", [[5.0]])
        assert main(["bound", "--id", "th1", "--p", "1", a, z, z, d]) == 0
        _, kv = parse_kv(capsys.readouterr().out.strip())
        assert float(kv["value"]) == pytest.approx(5.0, abs=1e-6)
        assert kv["ok"] == "true"

    def test_main3_prints_only_bound_line(self, tmp_path, capsys):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "main3.v1", path, path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        prefix, kv = parse_kv(lines[0])
        assert prefix == "bound"
        assert float(kv["value"]) == 2.0
        assert kv["ok"] == "true"

    def test_seed_option_rejected(self, tmp_path):
        # one operator never reaches the seeded ascent, so there is no --seed
        path = write_mat(tmp_path, "one.json", [[1.0]])
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--seed", "0", "--id", "main1.v1", path, path])
        assert exc.value.code == 2

    def test_power_out_of_range_exit_3(self, tmp_path, capsys):
        # main11's n2 ** q leaves the float range: an OutOfRangeError, not a crash
        x = write_mat(tmp_path, "x.json", [[1000.0, 1000.0]])
        y = write_mat(tmp_path, "y.json", [[1.0], [0.5]])
        assert main(["bound", "--id", "main11.v1", "--r", "3", "--alpha", "0",
                     "--p", "1.0546875", x, y]) == 3
        assert "float range" in capsys.readouterr().err

    def test_unknown_id_exit_5(self, tmp_path):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "main99", path, path]) == 5

    def test_wrong_arity_exit_3(self, tmp_path):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "th1", path, path]) == 3

    @pytest.mark.parametrize("bound_id", BOUND_IDS)
    @pytest.mark.parametrize("offset", (-1, 1))
    def test_wrong_arity_every_id_exit_3(self, tmp_path, bound_id, offset):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        count = bound_spec(bound_id).arity + offset
        assert main(["bound", "--id", bound_id] + [path] * count) == 3

    def test_holder_p_without_conjugate_exit_3(self, tmp_path):
        path = write_mat(tmp_path, "one.json", [[1.0]])
        assert main(["bound", "--id", "main11.v1", "--p", "1", path, path]) == 3


class TestVerifyCommand:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["verify", "--seed", "5", "--trials", "4",
                     "--bounds", "main1.v1,sum_norm",
                     "--out", str(out), "--format", "both"])
        assert code == 0
        text = capsys.readouterr().out
        assert "unexpected_violations=0" in text
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["format_version"] == "numrad-report/1"

    def test_as_stated_discrepancy_is_expected(self, tmp_path, capsys):
        cfg = {
            "bound_ids": ["main11.v1"],
            "dims": [[1, 1]],
            "r_values": [1.0],
            "alpha_values": [0.5],
            "holder_p_values": [2.0],
            "min_trials_per_bound": 3,
            "constant_mode": "as_stated",
            "ensembles": {"x": "scalar", "y": "scalar",
                          "contraction": "contraction", "block": "ginibre",
                          "normal": "normal"},
            "extra_trials": [
                ["main11.v1",
                 {"m": 1, "n": 1, "r": 1.0, "alpha": 0.5, "p": 2.0,
                  "constant_mode": "as_stated"},
                 {"x": [[1.0]], "y": [[1.0]]}],
            ],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["verify", "--config", str(cfg_path), "--seed", "3",
                     "--out", str(tmp_path), "--format", "json"])
        text = capsys.readouterr().out
        assert code == 0
        assert "expected_discrepancy bound=main11.v1" in text

    @pytest.mark.parametrize("bound_id,params,mats", [
        ("th1", {"m": 1, "n": 1, "p": 2.0}, {"x": [[1.0]], "y": [[1.0]]}),
        ("main1.v1", {"m": 1, "n": 1, "r": 1.0, "alpha": 0.5}, {"x": [[1.0]]}),
    ])
    def test_extra_trial_missing_keys_is_error_record(self, tmp_path, capsys,
                                                      bound_id, params, mats):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"bound_ids": [], "extra_trials": [[bound_id, params, mats]]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--format", "json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert f"bound_summary id={bound_id} count=1 violations=0 errors=1" in captured.out
        assert code == 0
        errors = json.loads((tmp_path / "report.json").read_text())["errors"]
        assert errors[0]["error"].startswith("DimensionMismatchError: expected matrices")

    def test_power_out_of_range_is_error_record(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bound_ids": [], "extra_trials": [
            ["main11.v1", {"m": 1, "n": 2, "r": 3.0, "alpha": 0.0, "p": 1.0546875},
             {"x": [[1000.0, 1000.0]], "y": [[1.0], [0.5]]}]]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--format", "json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "bound_summary id=main11.v1 count=1 violations=0 errors=1" in captured.out
        assert code == 0
        errors = json.loads((tmp_path / "report.json").read_text())["errors"]
        assert errors[0]["error"].startswith("OutOfRangeError: result out of the float range")

    def test_extra_trial_group_not_a_list_is_error_record(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"bound_ids": [], "extra_trials": [["th1", {"m": 1, "n": 1, "p": 2.0},
                                                {"blocks": 5}]]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--format", "json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "bound_summary id=th1 count=1 violations=0 errors=1" in captured.out
        assert code == 0
        errors = json.loads((tmp_path / "report.json").read_text())["errors"]
        assert errors[0]["error"].startswith(
            "DimensionMismatchError: 'blocks' must be a list of matrix groups")

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e-13", "-1"])
    def test_bad_tolerance_exit_3(self, tmp_path, capsys, tol):
        # rejected up front, before any trial becomes an error record
        code = main(["verify", "--tol", tol, "--trials", "1", "--bounds", "main1.v1",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "omega_tol" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_zeta_restarts_field_exit_2(self, tmp_path, capsys):
        # a config echo from before the field was removed still names it
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bound_ids": ["main3.v1"], "zeta_restarts": 6}))
        code = main(["verify", "--config", str(cfg_path), "--trials", "1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "zeta_restarts" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("override,name", [
        ({"slack": math.nan}, "slack"),
        ({"slack": -1.0}, "slack"),
        ({"omega_p_restarts": 0}, "omega_p_restarts"),
        ({"omega_p_max_iter": -1}, "omega_p_max_iter"),
        ({"ensembles": {"z": "ginibre"}}, "ensembles"),
        ({"ensembles": {"x": "cauchy"}}, "ensembles"),
        ({"trials": 0}, "trials"),
        ({"dims": [[0, 1]]}, "dims"),
        ({"jobs": 0}, "jobs"),
        ({"omega_p_restarts": "4"}, "omega_p_restarts"),
        ({"slack": "0"}, "slack"),
        ({"bound_ids": ["main11.v1"], "constant_mode": "bogus"}, "constant_mode"),
        ({"holder_p_values": [1.0]}, "holder_p_values"),
        ({"r_values": [0.5]}, "r_values"),
        ({"r_values": ["x"]}, "r_values"),
        ({"r_values": [math.inf]}, "r_values"),
        ({"alpha_values": [2]}, "alpha_values"),
        ({"alpha_values": [math.nan]}, "alpha_values"),
        ({"omega_p_p_values": [0.5]}, "omega_p_p_values"),
        ({"omega_p_p_values": [math.inf]}, "omega_p_p_values"),
        ({"n_operators_values": [0]}, "n_operators_values"),
        ({"n_operators_values": [1.5]}, "n_operators_values"),
        ({"n_operators_values": 2}, "n_operators_values"),
    ])
    def test_bad_config_value_exit_3(self, tmp_path, capsys, override, name):
        # each value would disable the check, flood the report with errors,
        # plan no trial or fail mid-campaign on its type
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(
            {"bound_ids": ["main1.v1", "th1"], "min_trials_per_bound": 1}, **override)))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 3
        assert name in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_zero_jobs_exit_3(self, tmp_path, capsys):
        code = main(["verify", "--jobs", "0", "--trials", "1", "--bounds", "main1.v1",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_partial_ensembles_run_with_default_roles(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bound_ids": ["main1.v1"], "min_trials_per_bound": 1,
                                        "ensembles": {"x": "scalar"}, "dims": [[1, 1]]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--format", "json"])
        assert code == 0
        assert "errors=0" in capsys.readouterr().out
        echo = json.loads((tmp_path / "report.json").read_text())["config"]
        assert echo["ensembles"] == dict(numrad.bounds.DEFAULT_ROLES, x="scalar")

    @pytest.mark.parametrize("bound_id,params,mats,error", [
        ("main1.v1", {"m": 1, "n": 1}, {"x": {"a": 1}, "y": [[1.0]]},
         "ValueError: matrix entries must be numbers"),
        ("main1.v1", {"m": 1, "n": 1, "r": [1]}, {"x": [[1.0]], "y": [[1.0]]},
         "TypeError: "),
        ("product_xy", {"m": 1, "n": 1, "variant": None}, {"x": [[1.0]], "y": [[1.0]]},
         "TypeError: "),
    ])
    def test_extra_trial_malformed_value_is_error_record(self, tmp_path, capsys, bound_id,
                                                         params, mats, error):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            {"bound_ids": [], "extra_trials": [[bound_id, params, mats]]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--format", "json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert f"bound_summary id={bound_id} count=1 violations=0 errors=1" in captured.out
        assert code == 0
        errors = json.loads((tmp_path / "report.json").read_text())["errors"]
        assert errors[0]["error"].startswith(error)

    @pytest.mark.parametrize("entry", [
        ["main1.v1", [1, 2], {"x": [[1.0]], "y": [[1.0]]}],
        ["main1.v1", {"m": 1, "n": 1}, [[1.0]]],
        ["main1.v1", {"m": 1, "n": 1}],
    ])
    def test_extra_trial_not_a_triple_exit_3(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bound_ids": [], "extra_trials": [entry]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 3
        assert "extra trial" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("bound_id", ["nope", ["main1.v1"]])
    def test_extra_trial_unknown_id_exit_5(self, tmp_path, capsys, bound_id):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bound_ids": [], "extra_trials": [[bound_id, {}, {}]]}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 5
        assert "unknown bound id" in captured.err
        assert captured.out == ""  # rejected before any trial ran
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("jobs,message", [(1, "planted failure"),
                                              (2, "campaign worker failed")])
    def test_unexpected_exception_exit_6(self, tmp_path, capfd, monkeypatch, jobs, message):
        orig = numrad.harness._start_trial

        def failing(config, index, *args):
            if index == 1:  # _deal(1, 2, n)[0]: at jobs 2, the forked worker's first trial
                raise RuntimeError("planted failure")
            return orig(config, index, *args)

        monkeypatch.setattr(numrad.harness, "_start_trial", failing)
        code = main(["verify", "--trials", "1", "--bounds", "main1.v1", "--jobs", str(jobs),
                     "--out", str(tmp_path)])
        err = capfd.readouterr().err
        assert code == 6
        assert "Traceback" in err and f"RuntimeError: {message}" in err
        assert not (tmp_path / "report.json").exists()

    def test_config_echo_loads_back(self, tmp_path):
        # every list in the echo, grid axes and extra trials alike, reads back
        # as the tuple the config holds
        extra = ("main1.v1", {"m": 1, "n": 1, "r": 1.0, "alpha": 0.5},
                 {"x": [[1.0]], "y": [[2.0]]})
        config = numrad.default_config(3, bound_ids=("main1.v1",), extra_trials=(extra,))
        echo = json.loads(numrad.report_to_json(numrad.harness.build_report(config, [])))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(echo["config"], extra_trials=[extra])))
        args = build_parser().parse_args(["verify", "--config", str(cfg_path)])
        assert _load_config(args) == config

    def test_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{broken")
        assert main(["verify", "--config", str(cfg_path)]) == 2


class TestCounterexamplesCommand:
    def test_runs_and_repeats_identically(self, capsys):
        assert main(["counterexamples", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["counterexamples", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "section=a" in first and "violation=true" in first
        assert "section=c" in first
        assert "search section=b" in first
