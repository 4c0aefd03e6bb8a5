import json
import warnings

import numpy as np
import pytest

from heun_racah.cli import main
from heun_racah.heun import BilinearParams

P0_GENERIC = {"N": 1, "beta": [5, 0], "gamma": [1, 0], "delta": [2, 0],
              "rho": [2, 0], "s1": [1, 0], "s2": [3, 0]}
P0_HOMOG = {"N": 1, "beta": [5, 0], "gamma": [1, 0], "delta": [2, 0],
            "rho": [2 / 7, 0], "s1": [0, 0], "s2": [3, 0]}


def write_params(tmp_path, payload, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestVerifyCommand:
    def test_all_relations(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_GENERIC)
        rc = main(["verify", "--relations", "all", "--params", path,
                   "--samples", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line for line in out.splitlines() if " ok" in line]
        assert len(rows) == 12

    def test_single_relation_deterministic(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_GENERIC)
        assert main(["verify", "--relations", "BB_EXCHANGE", "--params", path,
                     "--samples", "1", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--relations", "BB_EXCHANGE", "--params", path,
                     "--samples", "1", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_json_report(self, tmp_path):
        path = write_params(tmp_path, P0_GENERIC)
        out = tmp_path / "report.json"
        assert main(["verify", "--relations", "AB_EXCHANGE,CA_EXCHANGE",
                     "--params", path, "--samples", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [r["relation"] for r in payload["reports"]] == \
            ["AB_EXCHANGE", "CA_EXCHANGE"]

    def test_abv_report_has_no_notes(self, tmp_path):
        # ABV_ACTION checks one slot convention, so there is nothing to note
        path = write_params(tmp_path, P0_GENERIC)
        out = tmp_path / "report.json"
        assert main(["verify", "--relations", "ABV_ACTION", "--params", path,
                     "--samples", "3", "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())["reports"]
        assert set(report) == {"relation", "samples", "seed", "max_residual", "worst_tuple"}

    def test_sweep_without_a_finite_residual_is_undecided(self, tmp_path, capsys):
        # at N = 40 on the criterion-8 parameters every MABA_REDUCTION
        # residual overflows to NaN: the sweep checked nothing
        c8 = {"N": 40, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["verify", "--relations", "MABA_REDUCTION,BB_EXCHANGE", "--params", path,
                       "--samples", "10", "--out", str(out)])
        assert rc == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("MABA_REDUCTION") \
            and rows[0].endswith("UNDECIDED (10 of 10 non-finite)")
        assert rows[1].startswith("BB_EXCHANGE") and rows[1].endswith(" ok")
        maba, bb = json.loads(out.read_text())["reports"]
        assert maba["nonfinite"] == 10 and "nonfinite" not in bb

    def test_overflowed_residuals_beside_finite_ones_are_counted(self, tmp_path, capsys):
        # at N = 26 on the criterion-8 parameters (seed 0) 24 of 50 MABA_REDUCTION
        # norms overflow; the other 26 residuals decide the sweep
        c8 = {"N": 26, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        out = tmp_path / "report.json"
        assert main(["verify", "--relations", "MABA_REDUCTION", "--params", path,
                     "--out", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("MABA_REDUCTION") and row.endswith(" ok (24 of 50 non-finite)")
        (report,) = json.loads(out.read_text())["reports"]
        assert report["nonfinite"] == 24 and report["max_residual"] <= 1e-14

    def test_non_finite_defining_relation_is_undecided(self, tmp_path, capsys, monkeypatch):
        from heun_racah import dynamical
        real = dynamical.defining_residual
        monkeypatch.setattr(dynamical, "defining_residual",
                            lambda rep, rel: float("nan") if rel == "R2" else real(rep, rel))
        path = write_params(tmp_path, P0_GENERIC)
        out = tmp_path / "report.json"
        assert main(["verify", "--relations", "R1,R2,R3", "--params", path,
                     "--out", str(out)]) == 1
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].endswith(" ok") and rows[2].endswith(" ok")
        assert rows[1].startswith("R2") and rows[1].endswith("UNDECIDED (1 of 1 non-finite)")
        r1, r2, r3 = json.loads(out.read_text())["reports"]
        assert r2["nonfinite"] == 1 and "nonfinite" not in r1 and "nonfinite" not in r3

    def test_bad_gamma_delta_exits_2(self, tmp_path, capsys):
        bad = dict(P0_GENERIC, gamma=[1, 0], delta=[-2, 0])
        path = write_params(tmp_path, bad)
        assert main(["verify", "--relations", "R1", "--params", path]) == 2
        assert "x=0" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"N": 1,,}')
        assert main(["verify", "--relations", "R1", "--params", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_key_rejected(self, tmp_path):
        path = write_params(tmp_path, dict(P0_GENERIC, extra=[1, 0]))
        assert main(["verify", "--relations", "R1", "--params", path]) == 2

    def test_unknown_relation_rejected(self, tmp_path):
        path = write_params(tmp_path, P0_GENERIC)
        assert main(["verify", "--relations", "NOT_A_TAG", "--params", path]) == 2

    @pytest.mark.parametrize("tags", [",", " "])
    def test_empty_relation_list_exits_2(self, tmp_path, capsys, tags):
        # a list with no tag used to print the table header and exit 0
        path = write_params(tmp_path, P0_GENERIC)
        assert main(["verify", "--relations", tags, "--params", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: no relation given" in err

    def test_impossible_tolerance_exits_1(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_GENERIC)
        rc = main(["verify", "--relations", "BB_EXCHANGE", "--params", path,
                   "--samples", "2", "--tol", "1e-30"])
        assert rc == 1
        assert "VIOLATION" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        # nan passed every relation (res > nan is never true); -1 failed an
        # exact 0 residual
        path = write_params(tmp_path, P0_GENERIC)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--relations", "R1", "--params", path, "--tol", tol])
        assert exc.value.code == 2
        assert "--tol: must be a finite number >= 0" in capsys.readouterr().err

    def test_zero_tolerance_passes_an_exact_relation(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_GENERIC)
        assert main(["verify", "--relations", "R1", "--params", path, "--tol", "0"]) == 0
        assert " ok" in capsys.readouterr().out


class TestSpectrumCommand:
    def test_two_eigenvalues_and_trace(self, tmp_path):
        path = write_params(tmp_path, P0_GENERIC)
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--params", path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        vals = [complex(re, im) for re, im in payload["eigenvalues"]]
        assert len(vals) == 2
        trace = complex(*payload["trace"])
        assert abs(sum(vals) - trace) <= 1e-10 * max(1, abs(trace))

    def test_single_site(self, tmp_path):
        cfg = dict(P0_GENERIC, N=0)
        path = write_params(tmp_path, cfg)
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--params", path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["eigenvalues"]) == 1
        # a 1x1 operator's only eigenvalue is its single entry, the trace
        assert payload["eigenvalues"][0] == payload["trace"]

    def test_csv_export(self, tmp_path):
        path = write_params(tmp_path, P0_GENERIC)
        csv = tmp_path / "spec.csv"
        assert main(["spectrum", "--params", path, "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 3
        re, im = lines[1].split(",")
        float(re), float(im)  # plain parseable floats, full precision

    def test_bilinear_block_matches_parametric(self, tmp_path):
        bil = dict(P0_GENERIC)
        bil["bilinear"] = {"r0": [0, 0], "r1": [1, 0], "r2": [2, 0],
                           "r3": [-3, 0], "r4": [-1, 0]}
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["spectrum", "--params", write_params(tmp_path, bil, "a.json5"),
                     "--out", str(out_a)]) == 0
        assert main(["spectrum", "--params", write_params(tmp_path, P0_GENERIC, "b.json5"),
                     "--out", str(out_b)]) == 0
        va = json.loads(out_a.read_text())["eigenvalues"]
        vb = json.loads(out_b.read_text())["eigenvalues"]
        np.testing.assert_allclose(va, vb, atol=1e-10)


class TestSolveCommand:
    def test_homogeneous_end_to_end(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_HOMOG)
        out = tmp_path / "solve.json"
        rc = main(["solve", "--mode", "homogeneous", "--params", path,
                   "--starts", "16", "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["p_bar"] == 1
        assert payload["distinct"] >= 1
        for s in payload["states"]:
            assert s["eigen_residual"] <= 1e-8

    def test_auto_selects_homogeneous(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_HOMOG)
        assert main(["solve", "--mode", "auto", "--params", path,
                     "--starts", "8", "--seed", "3"]) == 0
        assert "auto mode: homogeneous" in capsys.readouterr().out

    def test_homogeneous_guard_without_integer_p_bar(self, tmp_path, capsys):
        path = write_params(tmp_path, P0_GENERIC)
        assert main(["solve", "--mode", "homogeneous", "--params", path]) == 2
        err = capsys.readouterr().err
        assert "candidates" in err

    def test_inhomogeneous_end_to_end(self, tmp_path):
        cfg = {"N": 1, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
               "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, cfg)
        out = tmp_path / "solve.json"
        rc = main(["solve", "--mode", "inhomogeneous", "--params", path,
                   "--starts", "32", "--seed", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["spectrum_coverage"]) == 2
        assert all(entry["matched"] for entry in payload["spectrum_coverage"])

    def test_inhomogeneous_n2_coverage_list(self, tmp_path):
        cfg = {"N": 2, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
               "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, cfg)
        out = tmp_path / "solve.json"
        rc = main(["solve", "--mode", "inhomogeneous", "--params", path,
                   "--starts", "32", "--seed", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["spectrum_coverage"]) == 3
        for state in payload["states"]:
            assert set(state) == {"mode", "roots", "u_aux", "eigenvalue",
                                  "bethe_residuals", "eigen_residual"}

    def test_bilinear_block_canonicalizes_then_solves(self, tmp_path):
        # the homogeneous parametric operator (rho=2/7, s1=0, s2=3) written
        # in bilinear coordinates; canonicalization must recover it
        cfg = dict(P0_HOMOG)
        cfg["bilinear"] = {"r0": [0, 0], "r1": [0, 0], "r2": [-19.6, 0],
                           "r3": [1.8, 0], "r4": [-1, 0]}
        path = write_params(tmp_path, cfg)
        out = tmp_path / "solve.json"
        rc = main(["solve", "--mode", "auto", "--params", path,
                   "--starts", "16", "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["p_bar"] == 1
        assert payload["bilinear_scale"] == [1.0, 0.0]
        assert payload["bilinear_shift"] == [0.0, 0.0]

    def test_stop_at_full_coverage_is_named(self, tmp_path, capsys):
        # criterion-8 at N = 2, seed 2 matches all three dense eigenvalues
        # by its 17th lane to finish; seed 0's lanes never match the third,
        # so all 64 run and the T-Q completion certifies its state
        cfg = {"N": 2, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
               "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, cfg)
        lines = []
        for seed in ("2", "0"):
            assert main(["solve", "--mode", "inhomogeneous", "--params", path,
                         "--seed", seed]) == 0
            lines.append(capsys.readouterr().out.splitlines()[:2])
        (lines[0], last), (lines[1], completion) = lines
        assert last.startswith("  eigenvalue")
        assert completion == ("T-Q completion: 1 state(s) added for the 1 eigenvalue(s) "
                              "the starts left unmatched")
        assert lines[0] == ("inhomogeneous: 3 distinct certified state(s) from 17 of 64 "
                            "starts (17 converged; every dense eigenvalue matched)")
        assert lines[1].endswith("from 64 starts (63 converged)")
        # homogeneous at p_bar = 2 stops at the 3 Bethe states, not at all 5
        # dense eigenvalues; at p_bar = 0 the one start is every start drawn
        for p_bar, rho in ((2, 2 / 9), (0, 2 / 5)):
            path = write_params(tmp_path, {**P0_HOMOG, "N": 4, "beta": [11, 0], "rho": [rho, 0]})
            assert main(["solve", "--mode", "homogeneous", "--params", path]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert lines[2] == ("homogeneous: 3 distinct certified state(s) from 4 of 64 starts "
                            "(4 converged; the p_bar + 1 = 3 states the Bethe ansatz gives "
                            "are certified)")
        assert lines[3] == "homogeneous: 1 distinct certified state(s) from 1 starts (1 converged)"

    def test_homogeneous_completion_certifies_past_the_lanes(self, tmp_path, capsys):
        # rho = 2/11 at N = 4 (p_bar = 3): every converged lane's roots miss
        # the margin at certification, and the T-Q completion certifies 3
        # states, where a solve without it exits 3 (a SolverFailure)
        path = write_params(tmp_path, {**P0_HOMOG, "N": 4, "rho": [2 / 11, 0]})
        assert main(["solve", "--mode", "homogeneous", "--params", path]) == 0
        first, completion = capsys.readouterr().out.splitlines()[:2]
        assert first == "homogeneous: 3 distinct certified state(s) from 64 starts (63 converged)"
        assert completion == ("T-Q completion: 3 state(s) added for the 5 eigenvalue(s) "
                              "the starts left unmatched")

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import heun_racah.cli as cli
        from heun_racah.errors import SolverFailure

        def boom(*args, **kwargs):
            raise SolverFailure("no start converged")

        monkeypatch.setattr(cli, "solve_inhomogeneous", boom)
        path = write_params(tmp_path, P0_GENERIC)
        assert main(["solve", "--mode", "inhomogeneous", "--params", path]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_byte_identical_reports(self, tmp_path):
        path = write_params(tmp_path, P0_HOMOG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["solve", "--mode", "homogeneous", "--params", path,
                         "--starts", "16", "--seed", "3", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPsiNearRoot:
    def test_verify_passes_at_the_near_root_sample(self, tmp_path, capsys):
        # sweep seed 3298771751 draws a PSI_FACTORED sample with u 0.01 from
        # a root, where the summed form's summands dwarf psi by 1e5: the
        # forward residual read 3.1e-10 there, the backward one reads 1.4e-15
        c8 = {"N": 12, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        assert main(["verify", "--relations", "PSI_FACTORED", "--params", path,
                     "--seed", "3298771751"]) == 0
        assert "PSI_FACTORED                50" in capsys.readouterr().out


class TestCheckMabaCommand:
    # s2=4 keeps m_bar off the degenerate values where a tau denominator
    # vanishes identically at small N
    MABA = dict(P0_GENERIC, s2=[4, 0])

    def test_proven_range(self, tmp_path, capsys):
        path = write_params(tmp_path, self.MABA)
        rc = main(["check-maba", "--params", path, "--N", "2",
                   "--draws", "10", "--seed", "1"])
        assert rc == 0
        assert "ok: proven range" in capsys.readouterr().out

    def test_conjecture_report(self, tmp_path, capsys):
        # the verdict states the precision it rests on
        path = write_params(tmp_path, self.MABA)
        out = tmp_path / "maba.json"
        rc = main(["check-maba", "--params", path, "--N", "5",
                   "--draws", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert verdict.startswith(
            "CONJECTURE SUPPORTED in double precision (proven only for N <= 4; ")
        assert json.loads(out.read_text())["precision"] == "float64"

    def test_overflow_is_undecided(self, tmp_path, capsys):
        # at N = 30 on the criterion-8 parameters every residual overflows
        # to NaN, which must not read as a verdict on the conjecture
        c8 = {"N": 30, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["check-maba", "--params", path, "--draws", "2", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "UNDECIDED: 2 of 2 draws" in out
        assert "CONJECTURE" not in out

    def test_overflowed_backward_residual_reads_nan(self, tmp_path, capsys):
        # at N = 26 (seed 0) 21 of 50 draws overflow; the worst backward
        # residual is NaN, never inf, which a true one cannot reach
        c8 = {"N": 26, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        out = tmp_path / "maba.json"
        assert main(["check-maba", "--params", path, "--out", str(out)]) == 0
        first, verdict = capsys.readouterr().out.splitlines()
        assert first.endswith("worst backward nan")
        assert verdict.startswith("UNDECIDED: 21 of 50 draws")
        assert np.isnan(json.loads(out.read_text())["worst_backward_residual"])

    def test_overflow_prints_no_warning(self, tmp_path, capsys):
        # the residual norms overflow at N = 30; numpy must not warn about it
        c8 = {"N": 3, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check-maba", "--params", path, "--N", "30", "--draws", "2"])
        assert rc == 0
        assert "UNDECIDED: 2 of 2 draws" in capsys.readouterr().out

    def test_invalid_values_print_no_warning(self, tmp_path, capsys):
        # at N = 40 the overflowed summands of one of the first 30 draws (seed 0)
        # meet as inf - inf; the draw is counted UNDECIDED, and numpy must not warn
        c8 = {"N": 3, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        path = write_params(tmp_path, c8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check-maba", "--params", path, "--N", "40", "--draws", "30"])
        assert rc == 0
        assert "UNDECIDED: 30 of 30 draws" in capsys.readouterr().out

    @pytest.mark.parametrize("command, rc, verdict", [
        (["verify", "--relations", "MABA_REDUCTION", "--samples", "2"], 1,
         "UNDECIDED (2 of 2 non-finite)"),
        (["check-maba", "--draws", "2"], 0, "UNDECIDED: 2 of 2 draws")], ids=["verify", "check-maba"])
    def test_overflowing_vectors_print_no_warning(self, tmp_path, capsys, command, rc, verdict):
        # at N = 63 the Bethe vectors overflow as they are built, before any norm
        params = {"N": 63, "beta": [5, 0], "gamma": [1, 0], "delta": [2, 0],
                  "rho": [2 / 15, 0], "s1": [0, 0], "s2": [3, 0]}
        path = write_params(tmp_path, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--params", path]) == rc
        assert verdict in capsys.readouterr().out

    def test_degenerate_m_bar_exits_2(self, tmp_path, capsys):
        # (rho=2, s2=3) gives m_bar=1/2, killing a tau denominator at N=2
        path = write_params(tmp_path, P0_GENERIC)
        rc = main(["check-maba", "--params", path, "--N", "2",
                   "--draws", "5", "--seed", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tau pole" in err and "perturb s2 or rho to move m_bar off it" in err

    def test_overflowing_tau_prefactor_exits_2_without_advice(self, tmp_path, capsys):
        # s2 = 1e308 puts m_bar near 3e307, where the tau prefactor overflows:
        # no perturbation of s2 moves m_bar off a pole there
        c8 = {"N": 3, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [1e308, 0]}
        path = write_params(tmp_path, c8)
        assert main(["check-maba", "--params", path, "--draws", "5", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "tau prefactor overflows" in err and "perturb" not in err

    def test_bilinear_block_is_canonicalized(self, tmp_path):
        # the block gives rho = 0.5; the check must run on that operator,
        # exactly as on a file that writes out its canonical rho, s1, s2
        from heun_racah.heun import canonicalize
        from heun_racah.racah import build_params
        from heun_racah.serialize import to_pair
        c8 = {"N": 3, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
              "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}
        block = {"r0": [0, 0], "r1": [0.3, 0], "r2": [0.1, 0],
                 "r3": [-2.1, 0], "r4": [0.7, 0]}
        hp, _, _ = canonicalize(BilinearParams(0, 0.3, 0.1, -2.1, 0.7),
                                build_params(3, 2.2 + 0.4j, 1.3, 0.8))
        assert hp.rho == pytest.approx(0.5)
        flat = dict(c8, rho=to_pair(hp.rho), s1=to_pair(hp.s1), s2=to_pair(hp.s2))
        outs = []
        for name, payload in (("bilinear", dict(c8, bilinear=block)), ("flat", flat)):
            out = tmp_path / f"{name}.out.json"
            assert main(["check-maba", "--params", write_params(tmp_path, payload, name),
                         "--N", "4", "--draws", "5", "--seed", "1", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_prefactor_root_branch(self, tmp_path):
        # u pinned at the swap-prefactor root exercises the reduced branch
        from heun_racah import bethe
        from heun_racah.heun import build_heun_params
        from heun_racah.racah import DynContext, build_params, build_representation
        rp = build_params(1, 5, 1, 2)
        ctx = DynContext(rep=build_representation(rp), rho=2)
        hp = build_heun_params(2, 1, 3, rp)
        u = rp.gamma + rp.delta - 2 * hp.m_bar + 2 * rp.N + 2
        roots = [1.4 + 0.6j]
        tau_u, _ = bethe.maba_reduce(u, roots, hp)
        lhs = bethe.bethe_vector(roots + [u], hp.m_bar, ctx)
        rhs = tau_u * bethe.bethe_vector(roots, hp.m_bar, ctx)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1, np.linalg.norm(lhs))


@pytest.mark.parametrize("argv", [
    ["solve", "--starts", "0"], ["solve", "--starts", "-2"],
    ["check-maba", "--draws", "0"],
    ["verify", "--samples", "0"], ["verify", "--samples", "-1"]])
def test_count_below_one_exits_2(tmp_path, capsys, argv):
    path = write_params(tmp_path, P0_GENERIC)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--params", path])
    assert exc.value.code == 2
    assert f"{argv[1]}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify", "check-maba"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # numpy's generators reject a negative seed with a ValueError traceback
    path = write_params(tmp_path, P0_GENERIC)
    with pytest.raises(SystemExit) as exc:
        main([command, "--params", path, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--out"], ["spectrum", "--csv"],
    ["verify", "--relations", "R1", "--out"]])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    path = write_params(tmp_path, P0_GENERIC)
    target = tmp_path / "missing" / "out.json"
    assert main(argv + [str(target), "--params", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}") and len(err.splitlines()) == 1


PARAM_COMMANDS = [["solve"], ["spectrum"], ["verify", "--relations", "R1"], ["check-maba"]]


@pytest.mark.parametrize("command", PARAM_COMMANDS)
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_value_exits_2(tmp_path, capsys, command, value):
    # JSON's Infinity and NaN tokens load as floats: solve ended in a
    # ValueError traceback from heun.integer_p_bar, verify and check-maba ran
    path = write_params(tmp_path, dict(P0_GENERIC, s1=[value, 0]))
    assert main(command + ["--params", path]) == 2
    err = capsys.readouterr().err
    assert "bad value for s1" in err and len(err.splitlines()) == 1


def test_non_finite_bilinear_value_exits_2(tmp_path, capsys):
    block = {"r0": [0, 0], "r1": [1, 0], "r2": [float("inf"), 0], "r3": [3, 0], "r4": [1, 0]}
    path = write_params(tmp_path, dict(P0_GENERIC, bilinear=block))
    assert main(["spectrum", "--params", path]) == 2
    assert "bad value in the bilinear block" in capsys.readouterr().err


@pytest.mark.parametrize("command", PARAM_COMMANDS)
def test_overflowing_structure_constants_exit_2(tmp_path, capsys, command):
    # beta ** 2 overflowed into an OverflowError traceback and exit 1
    path = write_params(tmp_path, dict(P0_GENERIC, beta=[1e300, 0]))
    assert main(command + ["--params", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the structure constants") and len(err.splitlines()) == 1


CRITERION_8_N2 = {"N": 2, "beta": [2.2, 0.4], "gamma": [1.3, 0], "delta": [0.8, 0],
                  "rho": [1.7, 0], "s1": [0.9, 0], "s2": [2.6, 0]}


@pytest.mark.parametrize("command", [["verify"], ["solve"], ["spectrum"], ["check-maba"]])
@pytest.mark.parametrize("beta", [1e4, 1e50])
def test_beta_beyond_the_bound_exits_2(tmp_path, capsys, command, beta):
    # at 1e4 verify failed R2 and WA_IDENTITY (exit 1); at 1e50 it also
    # warned of an overflow, and solve exited 3
    path = write_params(tmp_path, dict(CRITERION_8_N2, beta=[beta, 0]))
    assert main(command + ["--params", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: |beta| = {beta:.3g} exceeds 1000") and "R2" in err
    assert len(err.splitlines()) == 1


# (parameter, value, solve mode) of criterion-8 N = 3 problems whose Heun
# parameters overflow
HEUN_OVERFLOWS = [("s1", 1e308, "auto"), ("rho", 1e300, "auto"),
                  ("s2", 1e308, "inhomogeneous"), ("s2", 1e308, "auto")]


@pytest.mark.parametrize("name,value,mode", HEUN_OVERFLOWS,
                         ids=[f"{name}-{mode}" for name, _, mode in HEUN_OVERFLOWS])
def test_overflowing_heun_parameters_exit_2(tmp_path, capsys, name, value, mode):
    # s1 = 1e308 and rho = 1e300 gave root-count candidates p_bar that are
    # not finite (rho = 1e300 with a RuntimeWarning), and heun.integer_p_bar
    # raised ValueError or OverflowError on them; at s2 = 1e308
    # bethe._tau_shared raised OverflowError: a traceback and exit 1 each
    path = write_params(tmp_path, dict(CRITERION_8_N2, N=3, **{name: [value, 0]}))
    assert main(["solve", "--mode", mode, "--params", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err and len(err.splitlines()) == 1


def test_overflowing_W_norm_exits_2(tmp_path, capsys):
    # ||W||_F overflowed to inf with two RuntimeWarnings, and solve exited 0
    # with 2 states certified at eigen_residual 0
    path = write_params(tmp_path, dict(CRITERION_8_N2, N=3, s1=[1e160, 0]))
    assert main(["solve", "--mode", "inhomogeneous", "--params", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ||W||_F overflows") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["spectrum"], ["solve"]])
def test_overflowing_W_coefficient_exits_2(tmp_path, capsys, command):
    # (s2^2 - 1) / (2 rho (rho - 1)) is not finite: W took NaN entries, with
    # a RuntimeWarning, before the eigensolver rejected it
    path = write_params(tmp_path, {"N": 2, "beta": [-4.19, 0], "gamma": [-4.68, 0],
                                   "delta": [0.5, 0], "rho": [1e13, -1], "s1": [2 / 7, 0],
                                   "s2": [1e300, 0]})
    assert main(command + ["--params", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the W coefficient(s) of Y are not finite (overflow)")
    assert len(err.splitlines()) == 1


def test_beta_at_the_bound_verifies_and_solves(tmp_path, capsys):
    path = write_params(tmp_path, dict(CRITERION_8_N2, beta=[1e3, 0]))
    assert main(["verify", "--params", path]) == 0
    assert main(["solve", "--params", path]) == 0
    out = capsys.readouterr().out
    assert "VIOLATION" not in out and "spectrum coverage: 3/3" in out
