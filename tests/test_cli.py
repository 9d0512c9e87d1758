import json
import math
import subprocess
import sys

import numpy as np
import pytest

import fdivbounds
from fdivbounds.cli import COMMAND_OPERATIONS, main
from fdivbounds.divergences import divergence_matrix


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["p"] = tmp_path / "p.json"
    paths["p"].write_text(json.dumps({"pmf": [0.5, 0.5]}))
    paths["q"] = tmp_path / "q.json"
    paths["q"].write_text(json.dumps({"pmf": [0.25, 0.75]}))
    paths["ens"] = tmp_path / "ens.json"
    paths["ens"].write_text(
        json.dumps({"members": [{"pmf": [0.75, 0.25]}, {"pmf": [0.25, 0.75]}]})
    )
    paths["cover"] = tmp_path / "cover.json"
    paths["cover"].write_text(json.dumps({"candidates": [{"pmf": [0.5, 0.5]}]}))
    paths["profile"] = tmp_path / "profile.json"
    paths["profile"].write_text(
        json.dumps(
            {
                "packing": [[0.01, 1000.0], [1.0, 10.0]],
                "covering": [[0.1, 4.0], [1.0, 2.0]],
                "kind": "chi2",
            }
        )
    )
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_divergence(self, files, capsys):
        code, out = run_cli(
            capsys, "divergence", "--gen", "chi2", str(files["p"]), str(files["q"])
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_divergence_names_the_exact_power_exponent(self, files, capsys):
        """The generator's name once rounded the exponent to power:2.5."""
        code, out = run_cli(
            capsys, "divergence", "--gen", "power:2.5000001", str(files["p"]), str(files["q"])
        )
        assert code == 0
        assert '"generator": "power:2.5000001"' in out

    def test_bayes_risk(self, files, capsys):
        code, out = run_cli(capsys, "bayes-risk", str(files["ens"]))
        assert code == 0
        payload = json.loads(out)
        assert payload["bayes_risk"] == pytest.approx(0.25)
        assert payload["map_test"] == [0, 1]

    def test_bayes_risk_with_prior_override(self, files, capsys):
        code, out = run_cli(
            capsys, "bayes-risk", str(files["ens"]), "--prior", "1.0,0.0"
        )
        assert code == 0
        assert json.loads(out)["bayes_risk"] == pytest.approx(0.0)

    def test_minimax_risk(self, files, capsys):
        code, out = run_cli(capsys, "minimax-risk", str(files["ens"]), "--tol", "1e-6")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.25, abs=1e-9)
        assert payload["duality_gap"] <= 1e-9

    def test_bound_from_stats(self, files, capsys):
        code, out = run_cli(
            capsys, "bound", "--family", "fano", "--stats", "N=16,avgKL=1"
        )
        assert code == 0
        assert json.loads(out)["lower_bound"] == pytest.approx(0.3893, abs=1e-4)

    def test_bound_from_ensemble(self, files, capsys):
        code, out = run_cli(
            capsys, "bound", "--family", "chi2", "--from-ensemble", str(files["ens"])
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["lower_bound"] <= 0.25 + 1e-9

    def test_bound_needs_exactly_one_source(self, files, capsys):
        code, _ = run_cli(capsys, "bound", "--family", "fano")
        assert code == 1

    def test_bound_generic_families(self, capsys):
        code, out = run_cli(
            capsys, "bound", "--family", "implicit", "--gen", "chi2",
            "--stats", "N=2,sum=0.5",
        )
        assert code == 0
        assert json.loads(out)["lower_bound"] == pytest.approx(0.25, abs=1e-9)
        code, out = run_cli(
            capsys, "bound", "--family", "tangent", "--gen", "chi2",
            "--stats", "N=2,sum=0.5,a=0.25",
        )
        assert code == 0
        assert json.loads(out)["lower_bound"] == pytest.approx(0.25, abs=1e-12)
        code, out = run_cli(
            capsys, "bound", "--family", "two_point", "--gen", "chi2",
            "--stats", "V=0.3",
        )
        assert code == 0
        assert json.loads(out)["achieved"] == pytest.approx(0.18, abs=1e-12)
        code, out = run_cli(
            capsys, "bound", "--family", "floor", "--gen", "kl",
            "--stats", "W=0.5,rbar=0.0",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_divergence_analytic_model(self, capsys):
        code, out = run_cli(
            capsys, "divergence", "--model", "gaussian_location",
            "--theta0", "1", "--theta1", "0", "--n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kl"] == pytest.approx(1.0)
        assert payload["chi2"] == pytest.approx(np.e**2 - 1.0)

    def test_entropy_schedule(self, capsys):
        code, out = run_cli(
            capsys, "entropy-bound", "--kind", "chi2", "--model",
            "support_function", "--schedule-n", "100",
            "--params", "d=2,c_prime=1,c_dprime=1,gamma=1,sigma=1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == pytest.approx(0.0625)
        assert np.log1p(payload["eps"] ** 2) == pytest.approx(payload["u"] ** 2)

    @pytest.mark.parametrize(
        "params,message",
        [
            ("dd=3", "--schedule-n does not read dd; it reads d, c_prime, c_dprime, gamma, sigma"),
            ("d=2,eta0=1", "--schedule-n does not read eta0; it reads d, c_prime, c_dprime, gamma, sigma"),
            ("d=2.7", "d must be an integer, got 2.7"),
        ],
    )
    def test_entropy_schedule_bad_params(self, capsys, params, message):
        """An unknown key once gave the d = 2 schedule, and d=2.7 the d = 2
        one."""
        code = main(
            ["entropy-bound", "--kind", "chi2", "--model", "support_function",
             "--schedule-n", "100", "--params", params]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_entropy_schedule_overflow_names_inputs(self, capsys):
        """This once printed only "math range error"."""
        code = main(
            ["entropy-bound", "--kind", "chi2", "--model", "support_function",
             "--schedule-n", "1000000000000", "--params", "d=3"]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "n=1000000000000, d=3" in captured.err
        assert "eps" in captured.err and "leaves the float range" in captured.err

    @pytest.mark.parametrize(
        "params,value",
        [
            ("gamma=1e300,sigma=1e-300", "u = (gamma sqrt(n)/sigma)"),
            ("c_prime=1e300,d=2", "c = (c'/(2 + 2c''))"),
        ],
    )
    def test_entropy_schedule_out_of_range_names_inputs(self, capsys, params, value):
        """The first once printed "eps": "inf" and exited 0, the second
        only "(34, 'Numerical result out of range')"."""
        code = main(
            ["entropy-bound", "--kind", "chi2", "--model", "support_function",
             "--schedule-n", "100", "--params", params]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"n=100, d=2: {value}" in captured.err
        assert "leaves the float range" in captured.err
        for key, number in (pair.split("=") for pair in params.split(",")):
            if key != "d":
                assert f"{key}={float(number)!r}" in captured.err

    def test_jf_closed_and_numeric(self, files, capsys):
        code, out = run_cli(
            capsys, "jf", str(files["ens"]), "--gen", "chi2", "--method", "closed"
        )
        assert code == 0
        closed = json.loads(out)
        code, out = run_cli(
            capsys, "jf", str(files["ens"]), "--gen", "chi2", "--method", "numeric"
        )
        numeric = json.loads(out)
        assert closed["value"] == pytest.approx(numeric["value"], abs=1e-6)
        assert "upper_chain" in closed

    def test_jf_cover(self, files, capsys):
        code, out = run_cli(
            capsys,
            "jf-cover",
            str(files["ens"]),
            "--gen",
            "chi2",
            "--candidates",
            str(files["cover"]),
            "--kind",
            "chi2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["specialized_bound"] >= payload["generic_bound"] - 1e-12

    def test_jf_cover_makes_two_kernel_calls(self, files, capsys, monkeypatch, tmp_path):
        """The error, the argmin assignment and the generic bound come from
        one covering_bounds call: the max-min kernel call and the paired
        one (the error was once computed twice).  An explicit assignment
        moves only the generic bound."""
        from fdivbounds import informativity

        calls = []

        def counted(*args):
            calls.append(args)
            return divergence_matrix(*args)

        monkeypatch.setattr(informativity, "divergence_matrix", counted)
        cover = tmp_path / "cover.json"
        cands = [{"pmf": [0.8, 0.2]}, {"pmf": [0.2, 0.8]}]
        outs = []
        for extra in ({}, {"assignment": [1, 0]}):
            cover.write_text(json.dumps({"candidates": cands, **extra}))
            code, out = run_cli(
                capsys, "jf-cover", str(files["ens"]), "--gen", "kl", "--candidates", str(cover)
            )
            assert code == 0
            outs.append(json.loads(out))
        assert len(calls) == 4
        assert outs[0]["assignment"] == outs[1]["assignment"] == [0, 1]
        assert outs[0]["approx_error"] == outs[1]["approx_error"]
        assert outs[1]["generic_bound"] > outs[0]["generic_bound"]

    def test_jf_cover_one_candidate_infinite_f_at_zero(self, files, capsys):
        """reverse_kl has f(0+) = +inf; with one candidate the bound has no
        f(0+) term, where it once read NaN and exited 1."""
        code, out = run_cli(
            capsys, "jf-cover", str(files["ens"]), "--gen", "reverse_kl",
            "--candidates", str(files["cover"]),
        )
        assert code == 0
        # both members sit at KL(Q || P_theta) with Q uniform, by symmetry
        expected = 0.5 * (np.log(0.5 / 0.75) + np.log(0.5 / 0.25))
        assert json.loads(out)["generic_bound"] == pytest.approx(expected, abs=1e-15)

    def test_entropy_bound_builtin_model(self, capsys):
        code, out = run_cli(
            capsys,
            "entropy-bound",
            "--kind",
            "chi2",
            "--model",
            "gaussian_ball",
            "--params",
            "gamma=10,sigma=1,d=2",
            "--eta-grid",
            "logspace:0.001:10:64",
            "--eps-grid",
            "1.3108324944320957",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_bound"] > 0

    def test_entropy_bound_custom_profile_csv(self, files, capsys):
        code, out = run_cli(
            capsys,
            "entropy-bound",
            "--kind",
            "chi2",
            "--model",
            "custom",
            "--profile",
            str(files["profile"]),
            "--eta-grid",
            "0.02,0.1",
            "--eps-grid",
            "0.2,0.5",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eta,eps,bound"
        assert len(lines) == 5

    @pytest.mark.parametrize("kind", ["kl", "chi2", "power_l"])
    def test_entropy_bound_csv_matches_point_loop(self, files, capsys, kind):
        """CSV rows come in input order, duplicates kept and undefined points
        skipped, each byte for byte the point bound's value."""
        etas = [0.1, 0.02, 0.1, 5.0, 0.003, 0.5]
        epss = [0.5, 0.2, 0.2, 3.0, 0.05, 1.0]
        code, out = run_cli(
            capsys,
            "entropy-bound",
            "--kind",
            kind,
            "--exponent",
            "3",
            "--model",
            "custom",
            "--profile",
            str(files["profile"]),
            "--eta-grid",
            ",".join(map(repr, etas)),
            "--eps-grid",
            ",".join(map(repr, epss)),
            "--format",
            "csv",
        )
        assert code == 0
        table = json.loads(files["profile"].read_text())
        prof = fdivbounds.profile_from_table(table["packing"], table["covering"])
        loss = fdivbounds.power_loss(2.0)
        expected = ["eta,eps,bound"]
        for eta in etas:
            for eps in epss:
                try:
                    val = fdivbounds.entropy_risk_bound(
                        kind, prof, loss, eta, eps, l=3.0
                    )
                except ValueError:
                    continue
                expected.append(f"{eta!r},{eps!r},{val!r}")
        assert out.splitlines() == expected
        assert len(expected) == 1 + 5 * 4

    @pytest.mark.parametrize(
        "argv,axis,overflowing,finite",
        [
            (
                [
                    "--kind", "chi2", "--model", "support_function", "--params",
                    "c_prime=1,c_dprime=1,gamma=1,sigma=1,eta0=0.5,eps0=1,n=100,d=3",
                    "--eps-grid", "1",
                ],
                "--eta-grid", "0.0001", "0.1",
            ),
            (
                [
                    "--kind", "power_l", "--exponent", "40", "--model",
                    "gaussian_ball", "--params", "gamma=1,sigma=1,d=10",
                    "--eta-grid", "0.9",
                ],
                "--eps-grid", "0.5", "1.0",
            ),
        ],
    )
    def test_entropy_bound_overflow_exit_codes(
        self, capsys, argv, axis, overflowing, finite
    ):
        """A count (support_function's exp) or a power (M^(l-1)) past the
        float range skips its point: with only such points the command
        fails with exit code 1 and a message, not a traceback; with one
        finite point beside them it succeeds."""
        code = main(["entropy-bound", *argv, axis, overflowing])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        code, out = run_cli(
            capsys, "entropy-bound", *argv, axis, f"{overflowing},{finite}"
        )
        assert code == 0
        assert json.loads(out)["intermediates"]["feasible_grid_points"] == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_entropy_bound_rejects_non_finite_table(self, capsys, tmp_path, bad):
        path = tmp_path / "table.json"
        table = {
            "packing": [[0.1, bad], [1.0, 2.0]],
            "covering": [[0.1, 4.0], [1.0, 2.0]],
        }
        path.write_text(json.dumps(table))
        code = main(
            ["entropy-bound", "--kind", "chi2", "--model", "custom",
             "--profile", str(path)]
        )
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_vg(self, capsys):
        code, out = run_cli(capsys, "vg", "--k", "16", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] >= payload["size_floor"]
        assert payload["min_distance"] >= 4
        assert all(len(w) == 16 for w in payload["words"])

    def test_covmat_bound(self, capsys):
        code, out = run_cli(
            capsys, "covmat-bound", "--n", "64", "--alpha", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_bound"] > 0

    def test_cap_packing_json(self, capsys):
        code, out = run_cli(
            capsys, "cap-packing", "--d", "2", "--p", "1", "--eps", "0.01"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n_caps"] == 22

    def test_cap_packing_csv_sweep(self, capsys):
        code, out = run_cli(
            capsys, "cap-packing", "--d", "2", "--p", "1", "--eps", "0.01,0.02",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("epsilon,")

    def test_cap_packing_csv_d3_cells_parse(self, capsys):
        """The d = 3 sweep once printed numpy scalars as np.float64(...)."""
        code, out = run_cli(
            capsys, "cap-packing", "--d", "3", "--p", "1", "--eps", "0.005,0.01",
            "--format", "csv",
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert [row[header.index("caps")] for row in rows] == ["190", "100"]

    def test_verify_single_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "core", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["divergence", "--gen"])
        assert err.value.code == 2

    def test_overflow_exit_code(self, capsys):
        code = main(
            ["divergence", "--model", "uniform_scale", "--theta0", "1",
             "--theta1", "1000", "--n", "1000"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_floor_at_subnormal_mass_exit_code(self, capsys):
        code = main(["bound", "--family", "floor", "--gen", "kl", "--stats", "W=1e-320,rbar=0.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "model,theta0,theta1", [("uniform_scale", "1", "1000"), ("uniform_shift", "1000", "0")]
    )
    def test_analytic_overflow_names_inputs(self, capsys, model, theta0, theta1):
        code = main(
            ["divergence", "--model", model, "--theta0", theta0,
             "--theta1", theta1, "--n", "1000"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert model in err and "n=1000" in err
        assert "chi2 leaves the float range" in err

    def test_non_finite_pmf_file_exit_code(self, files, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"pmf": [0.5, 0.5, float("nan")]}))
        code = main(["divergence", "--gen", "kl", str(bad), str(files["q"])])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("minimax-risk", "{ens}"),
            ("bayes-risk", "{ens}"),
            ("bound", "--family", "fano", "--from-ensemble", "{ens}"),
            ("jf", "{ens}", "--gen", "chi2"),
            ("jf-cover", "{ens}", "--candidates", "{cover}", "--gen", "kl"),
        ],
    )
    @pytest.mark.parametrize(
        "payload,key",
        [
            ({"members": 5}, "members"),
            ({"members": [{"pmf": [0.75, 0.25]}, {"pmf": [0.25, 0.75]}], "labels": 3}, "labels"),
        ],
    )
    def test_non_list_ensemble_field_exit_code(self, files, capsys, tmp_path, argv, payload, key):
        bad = tmp_path / "bad_ens.json"
        bad.write_text(json.dumps(payload))
        code = main([a.format(ens=bad, cover=files["cover"]) for a in argv])
        assert code == 1
        assert capsys.readouterr().err == f'error: ensemble JSON "{key}" must be a list\n'

    @pytest.mark.parametrize("command", ["jf", "minimax-risk"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_bad_tol_exit_code(self, files, capsys, command, tol):
        extra = ["--gen", "chi2"] if command == "jf" else []
        code = main([command, str(files["ens"]), *extra, "--tol", tol])
        assert code == 1
        assert "tol must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["closed", "numeric"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_exit_code_for_every_method(self, files, capsys, method, tol):
        """--method closed, which runs no solver, once ignored --tol."""
        code = main(["jf", str(files["ens"]), "--gen", "chi2", "--method", method, "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: tol must be a positive finite number\n"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_bad_tol_exit_code_for_tv(self, files, capsys, tol):
        """jf --gen tv checks --tol as every other generator does, although
        the exact solver it routes to needs no tolerance."""
        code = main(["jf", str(files["ens"]), "--gen", "tv", "--tol", tol])
        assert code == 1
        assert "tol must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,finite,bad",
        [
            (("bound", "--family", "fano", "--stats"), "N=16,avgKL=1", "N=16,avgKL=nan"),
            (
                ("bound", "--family", "implicit", "--gen", "kl", "--stats"),
                "N=4,sum=1",
                "N=4,sum=inf",
            ),
            (
                ("entropy-bound", "--kind", "chi2", "--model", "gaussian_ball",
                 "--params"),
                "gamma=10,sigma=1,d=2",
                "gamma=10,sigma=nan,d=2",
            ),
            (
                ("entropy-bound", "--kind", "chi2", "--model", "gaussian_ball",
                 "--params", "gamma=10,sigma=1,d=2", "--eta-grid"),
                "0.5,1.0",
                "0.5,nan",
            ),
            (
                ("entropy-bound", "--kind", "chi2", "--model", "gaussian_ball",
                 "--params", "gamma=10,sigma=1,d=2", "--eps-grid"),
                "logspace:0.5:2:4",
                "logspace:0.5:inf:4",
            ),
        ],
    )
    def test_non_finite_numbers_exit_code(self, capsys, argv, finite, bad):
        """NaN or inf in --stats, --params or a grid stops at the parser;
        NaN once reached stdout as "lower_bound": NaN, which is not JSON."""
        code, out = run_cli(capsys, *argv, finite)
        assert code == 0
        json.loads(out)
        code = main([*argv, bad])
        assert code == 1
        assert "non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,k",
        [
            (("vg", "--k", "89"), 89),
            (("vg", "--k", "200"), 200),
        ],
    )
    def test_code_size_guards_exit_code(self, capsys, argv, k):
        """Codes too large to build stop with exit 1 before anything is
        allocated."""
        code = main(list(argv))
        assert code == 1
        assert f"k={k}" in capsys.readouterr().err

    def test_covmat_bound_past_float_range_runs(self, capsys):
        """e^(k/8) past the float range no longer stops covmat-bound: the
        bound reads the log count and code_size is null."""
        code, out = run_cli(capsys, "covmat-bound", "--n", "200000000", "--alpha", "1")
        assert code == 0
        inter = json.loads(out)["intermediates"]
        assert inter["k"] == 6433
        assert inter["code_size"] is None
        assert inter["log_code_size"] == 6433 / 8.0

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("cap-packing", "--d", "2", "--p", "nan", "--eps", "0.01"), "p"),
            (("cap-packing", "--d", "2", "--p", "inf", "--eps", "0.01"), "p"),
            (("covmat-bound", "--alpha", "1", "--n", "64", "--delta", "nan"), "delta"),
            (("covmat-bound", "--alpha", "1", "--n", "64", "--delta", "inf"), "delta"),
            (("covmat-bound", "--alpha", "nan", "--n", "64"), "alpha"),
            (("covmat-bound", "--alpha", "inf", "--n", "64"), "alpha"),
        ],
    )
    def test_non_finite_construction_parameters_exit_code(self, capsys, argv, name):
        """cap-packing once printed NaN distances for --p nan and died with a
        traceback for --p inf; covmat-bound printed a NaN or a vacuous 0.0
        bound for a non-finite --delta and ran with --alpha inf."""
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:")
        assert f"{name} must be a finite number" in captured.err

    def test_computation_error_exit_code(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pmf": [0.5, 0.6]}))
        code, _ = run_cli(capsys, "bayes-risk", str(bad))
        assert code == 1

    def test_malformed_seed_env_is_a_usage_error_where_read(self, monkeypatch, capsys):
        monkeypatch.setenv("FDIVBOUNDS_SEED", "abc")
        with pytest.raises(SystemExit) as err:
            main(["vg", "--k", "8"])
        assert err.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err

    def test_malformed_seed_env_spares_other_calls(self, monkeypatch, capsys):
        """A subcommand without --seed, or one given --seed, never reads
        the environment value."""
        monkeypatch.setenv("FDIVBOUNDS_SEED", "abc")
        code, out = run_cli(
            capsys, "divergence", "--model", "gaussian_location", "--theta0", "1", "--theta1", "0"
        )
        assert code == 0 and json.loads(out)["kl"] == 0.5
        code, out = run_cli(capsys, "vg", "--k", "8", "--seed", "3")
        assert code == 0 and json.loads(out)["length"] == 8


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, files):
        cmd = [
            sys.executable,
            "-m",
            "fdivbounds.cli",
            "vg",
            "--k",
            "24",
            "--seed",
            "3",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second

    def test_seed_env_override(self, files):
        cmd = [sys.executable, "-m", "fdivbounds.cli", "vg", "--k", "16"]
        env_a = {"FDIVBOUNDS_SEED": "3"}
        import os

        env = dict(os.environ)
        out_default = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
        env.update(env_a)
        out_seeded = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
        assert out_default != out_seeded


class TestDispatchCoverage:
    def test_every_operation_reachable_exactly_once(self):
        """Each public library operation belongs to exactly one subcommand."""
        seen = {}
        for cmd, ops in COMMAND_OPERATIONS.items():
            for op in ops:
                assert op not in seen, f"{op} mapped to {seen[op]} and {cmd}"
                seen[op] = cmd
        public_ops = {
            name
            for name in fdivbounds.__all__
            if name[0].islower() and name not in ("default_generators",)
        }
        # operations named in the dispatch table but living outside __all__
        # (suite runner, ensemble-statistics variant) are checked by name
        table = set(seen)
        missing = public_ops - table
        assert not missing, f"operations not reachable from the CLI: {sorted(missing)}"

    def test_table_matches_parser(self):
        from fdivbounds.cli import build_parser

        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        )
        # the argparse internals hold the registered choices
        choices = None
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                choices = set(action.choices)
                break
        assert choices == set(COMMAND_OPERATIONS)


class TestVerifyTimings:
    def test_timings_out_leaves_stdout_byte_identical(self, tmp_path, capsys):
        assert main(["verify", "--suite", "all", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "timings.json"
        assert main(["verify", "--suite", "all", "--seed", "3", "--timings-out", str(path)]) == 0
        assert capsys.readouterr().out == plain
        timings = json.loads(path.read_text())
        report = json.loads(plain)
        assert sorted(timings) == sorted(report["suites"])
        for suite, checks in report["suites"].items():
            assert list(timings[suite]) == [c["name"] for c in checks["checks"]]
            assert all(isinstance(s, float) and s >= 0.0 for s in timings[suite].values())

    def test_timings_out_unwritable_path_exits_1(self, tmp_path, capsys):
        path = tmp_path / "missing" / "timings.json"
        assert main(["verify", "--suite", "entropy", "--timings-out", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestEntryChecks:
    """Bad input stops where it enters, with exit 1 and the bad name."""

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_tangent_needs_two_hypotheses(self, capsys, n):
        """N=0 once ended in a ZeroDivisionError traceback, and N=1 blamed
        the anchor a."""
        code = main(["bound", "--family", "tangent", "--gen", "kl", "--stats", f"N={n},sum=1,a=0.1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: need at least 2 hypotheses\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--suite", "core", "--trials", "0"), "trials must be an integer >= 1, got 0"),
            (("--suite", "jf", "--trials", "0"), "trials must be an integer >= 1, got 0"),
            (("--suite", "constructions", "--trials", "0"), "trials must be an integer >= 1, got 0"),
            (("--suite", "mixture", "--trials", "0"), "trials must be an integer >= 1, got 0"),
            (("--suite", "all", "--trials", "-3"), "trials must be an integer >= 1, got -3"),
            (("--suite", "all", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
        ],
    )
    def test_verify_bad_trials_and_seed_exit_1(self, capsys, argv, message):
        """``--trials 0`` once printed a passing report that checked
        nothing; the rest failed inside numpy without naming the flag."""
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("divergence", "--model", "uniform_scale", "--theta0", "nan", "--theta1", "1", "--n", "2"),
             "theta0 must be a finite number, got nan"),
            (("divergence", "--model", "gaussian_location", "--theta1", "inf"),
             "theta1 must be a finite number, got inf"),
            (("divergence", "--model", "gaussian_location", "--theta1", "1", "--sigma", "nan"),
             "sigma must be a finite number, got nan"),
            (("jf-cover", "{ens}", "--gen", "kl", "--candidates", "{cover}", "--kind", "power_l",
              "--exponent", "nan"), "power_l needs a finite l > 1, got nan"),
            (("entropy-bound", "--kind", "power_l", "--model", "gaussian_ball", "--params",
              "gamma=10,sigma=1,d=2", "--exponent", "inf"), "power_l kind needs a finite l > 1"),
            (("entropy-bound", "--kind", "chi2", "--model", "gaussian_ball", "--params",
              "gamma=10,sigma=1,d=2", "--loss-exponent", "nan"),
             "loss exponent must be a finite number, got nan"),
            (("bound", "--family", "power_l", "--from-ensemble", "{ens}", "--exponent", "nan"),
             "exponent must be a finite number, got nan"),
        ],
    )
    def test_non_finite_library_parameters_exit_code(self, files, capsys, argv, message):
        """divergence and jf-cover once printed NaN, which is not JSON;
        entropy-bound blamed the grid and bound a pmf entry."""
        code = main([a.format(ens=files["ens"], cover=files["cover"]) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv",
        [
            ("divergence", "--gen", "{gen}", "{p}", "{q}"),
            ("jf", "{ens}", "--gen", "{gen}", "--method", "closed"),
            ("jf", "{ens}", "--gen", "{gen}", "--method", "numeric"),
            ("bound", "--family", "implicit", "--gen", "{gen}", "--stats", "N=4,sum=1"),
        ],
    )
    @pytest.mark.parametrize("gen", ["power:inf", "power:1e400", "power:nan", "power:1"])
    def test_power_exponent_refused_by_name(self, files, capsys, argv, gen):
        """power:inf once printed an infinite divergence or informativity,
        or failed in the solver's multiplier bracket; power:nan blamed a
        pmf entry."""
        fill = dict(gen=gen, p=files["p"], q=files["q"], ens=files["ens"])
        code = main([a.format(**fill) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: power generator needs a finite exponent > 1")

    @pytest.mark.parametrize("power", ["0", "-2"])
    def test_product_power_below_one_exit_code(self, files, capsys, power):
        """--product-power 0 or -2 once printed the base pair's divergence."""
        code = main(["divergence", "--gen", "kl", str(files["p"]), str(files["q"]),
                     "--product-power", power])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: n must be a positive integer\n"

    def test_emit_refuses_nan(self):
        from fdivbounds.cli import _emit

        with pytest.raises(ValueError):
            _emit({"value": float("nan")})

    @pytest.mark.parametrize(
        "family,spellings",
        [
            (("fano",), ("N=16,avgKL=1", "n=16,avg_kl=1")),
            (("power_l",), ("N=4,l=3,divergence_sum=1", "n=4,exponent=3,divergence_sum=1")),
            (("implicit", "--gen", "kl"), ("N=4,sum=1", "n=4,sum=1")),
            (("tangent", "--gen", "kl"), ("N=4,sum=1,a=0.1", "n=4,sum=1,a=0.1")),
        ],
    )
    def test_stats_spellings_agree(self, capsys, family, spellings):
        """One alias table serves the named and the generic families; the
        generic ones once read only N."""
        outs = [run_cli(capsys, "bound", "--family", *family, "--stats", s) for s in spellings]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    @pytest.mark.parametrize(
        "family,stats,message",
        [
            (("implicit", "--gen", "kl"), "sum=1", "implicit needs n"),
            (("tangent", "--gen", "kl"), "N=4,sum=1", "tangent needs a"),
            (("two_point", "--gen", "kl"), "W=0.3", "two_point needs V"),
            (("floor", "--gen", "kl"), "W=0.5", "floor needs rbar"),
            (("fano",), "N=4", "fano needs avg_kl"),
            (("power_l",), "N=4,divergence_sum=1", "power_l needs exponent"),
            (("fano",), "N=4.7,avgKL=1", "N must be an integer, got 4.7"),
            (("implicit", "--gen", "kl"), "N=4.7,sum=1", "N must be an integer, got 4.7"),
            (("fano",), "N=16,avgKL=1,bogus=3", "fano does not read bogus; it reads n, avg_kl"),
            (("fano",), "N=4,bogus=3", "fano needs avg_kl"),
            (("reverse_kl_tv",), "N=2,divergence_sum=1",
             "reverse_kl_tv does not read n; it reads divergence_sum"),
            (("implicit", "--gen", "chi2"), "N=4,sum=1.5,zzz=1", "implicit does not read zzz; it reads n, sum"),
            (("two_point", "--gen", "kl"), "V=0.3,W=0.3", "two_point does not read W; it reads V"),
            (("floor", "--gen", "kl"), "W=0.5,rbar=0.2,N=4,x=1", "floor does not read n, x; it reads W, rbar"),
        ],
    )
    def test_bad_stats_named(self, capsys, family, stats, message):
        """A missing key once printed only its quoted name, and N=4.7 gave
        the N=4 bound."""
        code = main(["bound", "--family", *family, "--stats", stats])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,payload,message",
        [
            (("jf-cover", "{ens}", "--gen", "kl", "--candidates", "{bad}"),
             {"candidates": 5}, 'covering JSON "candidates" must be a list'),
            (("jf-cover", "{ens}", "--gen", "kl", "--candidates", "{bad}"),
             {"candidates": [{"pmf": [0.5, 0.5]}], "assignment": 5},
             'covering JSON "assignment" must be a list'),
            (("entropy-bound", "--kind", "chi2", "--model", "custom", "--profile", "{bad}"),
             {"packing": 5, "covering": [[0.1, 4.0], [1.0, 2.0]]}, 'profile JSON "packing" must be a list'),
            (("entropy-bound", "--kind", "chi2", "--model", "custom", "--profile", "{bad}"),
             {"packing": [[0.01, 1000.0], [1.0, 10.0]], "covering": "x"},
             'profile JSON "covering" must be a list'),
            (("entropy-bound", "--kind", "chi2", "--model", "custom", "--profile", "{bad}"),
             {"covering": [[0.1, 4.0], [1.0, 2.0]]},
             'profile JSON must be an object with "packing" and "covering" keys'),
            (("jf-cover", "{ens}", "--gen", "kl", "--candidates", "{bad}"),
             {"candidates": [{"pmf": [0.5, 0.5]}, {"pmf": [0.2, 0.8]}], "assignment": [0.7, 1.9]},
             "assignment entry 0.7 is not an integer candidate index"),
            (("jf-cover", "{ens}", "--gen", "kl", "--candidates", "{bad}"),
             {"candidates": [{"pmf": [0.5, 0.5]}], "assignment": [[0], 0]},
             "assignment entry [0] is not an integer candidate index"),
            (("jf-cover", "{ens}", "--gen", "kl", "--candidates", "{bad}"),
             {"candidates": [{"pmf": [0.5, 0.5]}], "assignment": [True, 0]},
             "assignment entry True is not an integer candidate index"),
            (("entropy-bound", "--kind", "chi2", "--model", "custom", "--profile", "{bad}"),
             {"packing": [5], "covering": [[0.1, 4.0], [1.0, 2.0]]},
             "packing table entry 5 is not a [radius, count] pair of numbers"),
        ],
    )
    def test_non_list_json_fields_exit_code(self, files, capsys, tmp_path, argv, payload, message):
        """These once ended in a TypeError traceback, or printed only the
        missing key's name; a float assignment entry was truncated."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = main([a.format(ens=files["ens"], bad=bad) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"
