import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from fdivbounds import testing_risk, verify
from fdivbounds.distributions import DiscreteDistribution, Ensemble
from fdivbounds.testing_risk import (
    bayes_risk_exact,
    map_test,
    minimax_risk,
    minimax_risks,
    error_probability,
)


def ens_of(*rows, prior=None):
    members = tuple(DiscreteDistribution(np.array(r)) for r in rows)
    return Ensemble(members=members, prior=None if prior is None else np.array(prior))


TWO_POINT = ens_of([0.75, 0.25], [0.25, 0.75])


def dense_prior_lp(pmat):
    """The prior LP of one (N, S) member matrix written out densely and
    solved on its own at feasibility 1e-10: min sum_x t_x s.t.
    w_theta p_theta(x) <= t_x, w in the simplex, over [w_0..w_{N-1},
    t_0..t_{S-1}]; 1 - fun is the minimax risk."""
    n, s = pmat.shape
    rows = np.arange(n * s)
    theta, x = np.divmod(rows, s)
    a_ub = coo_matrix(
        (np.concatenate([pmat.ravel(), -np.ones(n * s)]),
         (np.concatenate([rows, rows]), np.concatenate([theta, n + x]))),
        shape=(n * s, n + s),
    )
    ref = linprog(
        np.concatenate([np.zeros(n), np.ones(s)]),
        A_ub=a_ub,
        b_ub=np.zeros(n * s),
        A_eq=np.concatenate([np.ones(n), np.zeros(s)])[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)] * s,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert ref.status == 0
    return ref


def worst_case_error(ens, choice):
    """max_theta P_theta{T != theta}: the minimax value of one deterministic
    test, by a loop over the members."""
    choice = np.asarray(choice)
    pmat = ens.pmf_matrix()
    hits = np.zeros(ens.size)
    for theta in range(ens.size):
        hits[theta] = pmat[theta, choice == theta].sum()
    return float(1.0 - hits.min())


class TestBayesRisk:
    def test_two_member_example(self):
        assert bayes_risk_exact(TWO_POINT) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_identical_members(self, n):
        member = [0.4, 0.6]
        ens = ens_of(*[member] * n)
        assert bayes_risk_exact(ens) == pytest.approx(1.0 - 1.0 / n, abs=1e-15)

    def test_degenerate_prior(self):
        ens = ens_of([0.75, 0.25], [0.25, 0.75], prior=[1.0, 0.0])
        assert bayes_risk_exact(ens) == 0.0

    def test_uniform_prior_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            s = int(rng.integers(2, 13))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                )
            )
            assert bayes_risk_exact(ens) <= 1.0 - 1.0 / n + 1e-12

    def test_concavity_in_prior(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(2, 9))
            members = tuple(
                DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
            )
            w1, w2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            mid = bayes_risk_exact(Ensemble(members=members, prior=(w1 + w2) / 2))
            avg = (
                bayes_risk_exact(Ensemble(members=members, prior=w1))
                + bayes_risk_exact(Ensemble(members=members, prior=w2))
            ) / 2.0
            assert mid >= avg - 1e-12


class TestMapTest:
    def test_two_member_example(self):
        assert map_test(TWO_POINT).tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        ens = ens_of([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        assert map_test(ens).tolist() == [0, 0]

    def test_degenerate_prior_picks_supported_member(self):
        ens = ens_of([0.75, 0.25], [0.25, 0.75], prior=[1.0, 0.0])
        assert map_test(ens).tolist() == [0, 0]

    def test_map_achieves_bayes_risk(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            s = int(rng.integers(2, 13))
            ens = Ensemble(
                members=tuple(
                    DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
                ),
                prior=rng.dirichlet(np.ones(n)),
            )
            err = error_probability(ens, map_test(ens))
            assert err == pytest.approx(bayes_risk_exact(ens), abs=1e-12)

    def error_probability_validates_assignment(self):
        with pytest.raises(ValueError):
            error_probability(TWO_POINT, np.array([0, 5]))
        with pytest.raises(ValueError):
            error_probability(TWO_POINT, np.array([0]))


class TestMinimaxRisk:
    def test_two_member_example(self):
        res = minimax_risk(TWO_POINT, tol=1e-6)
        assert res.value == pytest.approx(0.25, abs=1e-9)
        # the witness prior attains the reported value
        attained = bayes_risk_exact(Ensemble(members=TWO_POINT.members, prior=res.prior))
        assert attained == pytest.approx(res.value, abs=1e-12)
        assert res.duality_gap <= 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            minimax_risk(TWO_POINT, tol=tol)

    def test_identical_members(self):
        ens = ens_of([0.4, 0.6], [0.4, 0.6], [0.4, 0.6])
        assert minimax_risk(ens).value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_mutually_singular_members(self):
        ens = ens_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        res = minimax_risk(ens)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.duality_gap == pytest.approx(0.0, abs=1e-12)

    def test_dominates_every_prior(self):
        rng = np.random.default_rng(3)
        tol = 1e-6
        for _ in range(50):
            n = int(rng.integers(2, 5))
            s = int(rng.integers(2, 9))
            members = tuple(
                DiscreteDistribution(rng.dirichlet(np.ones(s))) for _ in range(n)
            )
            res = minimax_risk(Ensemble(members=members), tol=tol)
            for _ in range(8):
                w = rng.dirichlet(np.ones(n))
                assert (
                    bayes_risk_exact(Ensemble(members=members, prior=w))
                    <= res.value + tol
                )
            assert res.value >= bayes_risk_exact(Ensemble(members=members)) - 1e-12

    def test_gap_bounded_by_worst_case_of_any_test(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            members = tuple(
                DiscreteDistribution(rng.dirichlet(np.ones(6))) for _ in range(3)
            )
            ens = Ensemble(members=members)
            res = minimax_risk(ens)
            assert res.duality_gap >= -1e-12
            assert res.value + res.duality_gap <= worst_case_error(ens, map_test(ens)) + 1e-12

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            minimax_risk(TWO_POINT, tol=0.0)

    def test_large_instance_certified(self):
        rng = np.random.default_rng(5)
        members = tuple(
            DiscreteDistribution(row) for row in rng.dirichlet(np.ones(500), size=20)
        )
        ens = Ensemble(members=members)
        res = minimax_risk(ens, tol=1e-6)
        assert res.duality_gap <= 1e-6
        assert bayes_risk_exact(ens) - 1e-12 <= res.value <= 1.0 - 1.0 / 20


def _mixed_batch():
    """Ensembles with N from 2 to 12 and S from 2 to 128 on both sides of
    BATCH_CELLS, with identical members (whose LP prior can fall a rounding
    error short of the uniform one, which then replaces it), mutually
    singular members and a member family that carries a prior."""
    rng = np.random.default_rng(6)
    shapes = [(2, 2), (12, 128), (3, 8), (4, 64), (5, 52), (2, 128), (12, 21),
              (6, 50), (7, 5), (12, 2), (3, 86), (9, 28)]
    out = []
    for n, s in shapes:
        rows = rng.dirichlet(np.ones(s), size=n)
        out.append(Ensemble(members=tuple(DiscreteDistribution(r) for r in rows)))
    out.insert(3, ens_of(*[[0.4, 0.6]] * 3))
    out.insert(5, ens_of(*[rng.dirichlet(np.ones(7))] * 6))
    out.insert(6, ens_of(*[rng.dirichlet(np.ones(3))] * 7))
    out.insert(7, ens_of(*np.eye(5)))
    weighted = rng.dirichlet(np.ones(16), size=4)
    out.insert(9, Ensemble(
        members=tuple(DiscreteDistribution(r) for r in weighted),
        prior=np.array([0.1, 0.2, 0.3, 0.4]),
    ))
    return out


class TestMinimaxRisks:
    def test_batch_spans_the_cell_constant(self):
        cells = [e.size * e.support_size for e in _mixed_batch()]
        assert min(cells) <= testing_risk.BATCH_CELLS < max(cells)
        assert testing_risk.BATCH_CELLS in cells

    @pytest.mark.parametrize("lp_cells", [None, 300])
    def test_matches_one_at_a_time(self, monkeypatch, lp_cells):
        batch = _mixed_batch()
        alone = [minimax_risk(ens) for ens in batch]
        if lp_cells is not None:
            # several joined LPs, split between the same blocks
            monkeypatch.setattr(testing_risk, "LP_CELLS", lp_cells)
        results = minimax_risks(batch)
        assert len(results) == len(batch)
        for ens, res, ref in zip(batch, results, alone):
            assert res.value == pytest.approx(ref.value, abs=1e-12)
            assert res.duality_gap <= 1e-9
            assert res.prior.shape == (ens.size,)
            attained = bayes_risk_exact(Ensemble(members=ens.members, prior=res.prior))
            assert attained == pytest.approx(res.value, abs=1e-12)

    def test_special_blocks_keep_their_values(self):
        batch = _mixed_batch()
        results = minimax_risks(batch)
        # identical members: the maximum is 1 - 1/N at the uniform prior
        for i in (3, 5, 6):
            n = batch[i].size
            assert results[i].value == pytest.approx(1.0 - 1.0 / n, abs=1e-12)
            assert np.allclose(results[i].prior, 1.0 / n, rtol=0.0, atol=1e-12)
        assert results[7].value == pytest.approx(0.0, abs=1e-12)
        assert results[7].duality_gap == pytest.approx(0.0, abs=1e-12)
        # the ensemble's own prior plays no part in the maximum
        uniform = Ensemble(members=batch[9].members)
        assert results[9].value == pytest.approx(minimax_risk(uniform).value, abs=1e-12)

    def test_empty(self):
        assert minimax_risks([]) == []


class TestVerifyCheck:
    def test_records_the_certified_gap(self):
        rec = verify.check_minimax_dominates_priors(0, trials=20)
        assert rec["pass"] is True
        assert 0.0 <= rec["worst_gap"] <= 1e-9

    def test_fails_on_a_gap_above_1e_9(self, monkeypatch):
        def loose(ensembles, tol):
            return [
                dataclasses.replace(res, duality_gap=2e-9)
                for res in minimax_risks(ensembles, tol)
            ]

        monkeypatch.setattr(verify, "minimax_risks", loose)
        rec = verify.check_minimax_dominates_priors(0, trials=20)
        assert rec["pass"] is False
        assert rec["worst_gap"] == 2e-9


class TestStackedRisks:
    def test_stacked_risks_equal_one_ensemble_calls(self):
        rng = np.random.default_rng(61)
        w = rng.dirichlet(np.ones(3), size=40)
        pmats = rng.dirichlet(np.ones(5), size=(40, 3))
        risks = testing_risk.bayes_risks(w, pmats)
        tests = testing_risk.map_tests(w, pmats)
        errors = testing_risk.error_probabilities(w, pmats, tests)
        for i in range(40):
            ens = ens_of(*pmats[i], prior=w[i])
            assert risks[i].tobytes() == np.float64(bayes_risk_exact(ens)).tobytes()
            assert np.array_equal(tests[i], map_test(ens))
            assert errors[i].tobytes() == np.float64(error_probability(ens, tests[i])).tobytes()


class TestMinimaxTolerance:
    def test_tol_below_highs_default_is_certified(self):
        """This 20 x 1000 ensemble is solved alone on the interior-point
        method, which crosses over to a vertex: at the default tolerance it
        certifies a gap of rounding size and matches the dense reference,
        and a tol of 1e-8 certifies at most 1e-8."""
        rows = np.random.default_rng(3).dirichlet(np.ones(1000), size=20)
        ens = ens_of(*rows)
        res = minimax_risk(ens)
        assert 0.0 <= res.duality_gap <= 1e-12
        assert res.value == pytest.approx(1.0 - dense_prior_lp(rows).fun, abs=1e-9)
        res = minimax_risk(ens, tol=1e-8)
        assert 0.0 <= res.duality_gap <= 1e-8

    @pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12])
    def test_tol_below_the_highs_floor_warns_nothing(self, tol):
        """tol / 10 below 1e-10 once reached HiGHS, which refused it with an
        OptimizeWarning and solved at its default; the passed value is now
        clamped at the least it accepts."""
        ens = ens_of(*[[0.3, 0.7]] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimax_risk(ens, tol=tol)
        assert res.value == 0.75
        assert 0.0 <= res.duality_gap <= tol

    @pytest.mark.parametrize("kind", ["seeded", "identical", "disjoint"])
    def test_lone_lps_match_a_dense_reference(self, kind):
        """Ensembles above BATCH_CELLS, each solved alone, certify a gap of
        at most 1e-12 and match the prior LP written out here, solved at
        the same feasibility tolerance."""
        if kind == "seeded":
            pmat = np.random.default_rng(7).dirichlet(np.ones(500), size=20)
        elif kind == "identical":
            pmat = np.tile(np.random.default_rng(8).dirichlet(np.ones(60)), (6, 1))
        else:
            pmat = np.kron(np.eye(5), np.full(20, 1.0 / 20))
        n, s = pmat.shape
        assert pmat.size > testing_risk.BATCH_CELLS
        res = minimax_risks([pmat], tol=1e-12)[0]
        assert 0.0 <= res.duality_gap <= 1e-12
        # variables [w_0..w_{n-1}, t_0..t_{s-1}]: min sum t, w_theta p_theta(x) <= t_x
        rows = np.arange(n * s)
        theta, x = np.divmod(rows, s)
        a_ub = coo_matrix(
            (np.concatenate([pmat.ravel(), -np.ones(n * s)]),
             (np.concatenate([rows, rows]), np.concatenate([theta, n + x]))),
            shape=(n * s, n + s),
        )
        ref = linprog(
            np.concatenate([np.zeros(n), np.ones(s)]),
            A_ub=a_ub,
            b_ub=np.zeros(n * s),
            A_eq=np.concatenate([np.ones(n), np.zeros(s)])[None, :],
            b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)] * s,
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status == 0
        assert res.value == pytest.approx(1.0 - ref.fun, abs=1e-9)
        if kind == "identical":
            assert res.value == pytest.approx(1.0 - 1.0 / n, abs=1e-12)
        if kind == "disjoint":
            assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_cli_tol_below_the_highs_floor_writes_no_stderr(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"members": [{"pmf": [0.3, 0.7]}] * 4}))
        cmd = [sys.executable, "-m", "fdivbounds.cli", "minimax-risk", str(path), "--tol", "1e-10"]
        done = subprocess.run(cmd, capture_output=True, check=True)
        assert done.stderr == b""
        assert json.loads(done.stdout)["value"] == 0.75


class TestMemberMatrices:
    def test_matrices_match_their_ensembles(self):
        batch = _mixed_batch()
        from_matrices = minimax_risks([np.array(ens.pmf_matrix()) for ens in batch])
        for res, ref in zip(from_matrices, minimax_risks(batch)):
            assert res.value == ref.value
            assert res.duality_gap == ref.duality_gap
            assert np.array_equal(res.prior, ref.prior)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[0.5, 0.6], [0.5, 0.5]], "pmf sums to"),
            ([[0.5, math.nan], [0.5, 0.5]], "non-finite"),
            ([[1.2, -0.2], [0.5, 0.5]], "negative probability"),
            ([0.5, 0.5], "2-d"),
        ],
    )
    def test_bad_matrices_are_refused(self, rows, message):
        with pytest.raises(ValueError, match=message):
            minimax_risks([TWO_POINT, np.array(rows)])


#: two-member cases where the sort meets its degenerate inputs, with the
#: minimax risk of each
DEGENERATE_PAIRS = {
    "identical": ([[0.4, 0.6], [0.4, 0.6]], 0.5),
    "disjoint": ([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]], 0.0),
    "point_masses": ([[1.0, 0.0], [0.0, 1.0]], 0.0),
    "subnormal_mass": ([[5e-324, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]], 0.4),
    "dead_point": ([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]], 0.4),
    # breakpoints 2/7, 1/2, 1/2, 8/13: the maximum is at the tied pair
    "tied_breakpoints": ([[0.25] * 4, [0.25, 0.25, 0.1, 0.4]], 0.425),
}


def _two_member_matrices():
    """Seeded 2 x S member matrices up to S = 2000; every third has half of
    its first member's points zeroed."""
    rng = np.random.default_rng(26)
    out = []
    for i, s in enumerate([2, 3, 4, 7, 16, 33, 64, 128, 129, 300, 777, 2000]):
        pmat = rng.dirichlet(np.ones(s), size=2)
        if i % 3 == 2:
            pmat[0, rng.choice(s, size=s // 2, replace=False)] = 0.0
            pmat[0] /= pmat[0].sum()
        out.append(pmat)
    return out


class TestTwoPointSort:
    @pytest.mark.parametrize("as_ensembles", [False, True])
    def test_matches_a_dense_reference(self, as_ensembles):
        pmats = _two_member_matrices()
        batch = [ens_of(*p) for p in pmats] if as_ensembles else pmats
        results = minimax_risks(batch, tol=1e-12)
        for pmat, res in zip(pmats, results):
            assert res.diagnostics["method"] == "two_point_sort"
            assert res.value == pytest.approx(1.0 - dense_prior_lp(pmat).fun, abs=1e-12)
            assert 0.0 <= res.duality_gap <= 1e-15

    @pytest.mark.parametrize("case", sorted(DEGENERATE_PAIRS))
    def test_degenerate_pairs(self, case):
        rows, expected = DEGENERATE_PAIRS[case]
        pmat = np.array(rows)
        res = minimax_risks([pmat], tol=1e-12)[0]
        assert res.value == pytest.approx(expected, abs=1e-15)
        assert res.value == pytest.approx(1.0 - dense_prior_lp(pmat).fun, abs=1e-12)
        attained = bayes_risk_exact(ens_of(*rows, prior=res.prior))
        assert attained == pytest.approx(res.value, abs=1e-15)
        assert 0.0 <= res.duality_gap <= 1e-15
        _, test = testing_risk._two_point_sort(pmat)
        assert np.allclose(test.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
        err0, err1 = 1.0 - (test * pmat).sum(axis=1)
        assert err0 == pytest.approx(err1, abs=1e-15)

    def test_mixed_list_keeps_input_order(self):
        rng = np.random.default_rng(27)
        shapes = [(2, 5), (3, 8), (2, 300), (4, 100), (2, 2), (5, 6), (2, 64)]
        pmats = [rng.dirichlet(np.ones(s), size=n) for n, s in shapes]
        results = minimax_risks(pmats)
        for pmat, res in zip(pmats, results):
            alone = minimax_risks([pmat])[0]
            assert res.prior.shape == (pmat.shape[0],)
            assert res.diagnostics["method"] == alone.diagnostics["method"]
            if pmat.shape[0] == 2:
                assert res.value == alone.value
                assert res.duality_gap == alone.duality_gap
                assert np.array_equal(res.prior, alone.prior)
            else:
                assert res.value == pytest.approx(alone.value, abs=1e-12)
                assert res.duality_gap <= 1e-9


class TestDiagnostics:
    @pytest.mark.parametrize(
        "n,s,method",
        [
            (2, 2, "two_point_sort"),
            (2, 128, "two_point_sort"),
            (2, 129, "two_point_sort"),
            (2, 2000, "two_point_sort"),
            (3, 8, "highs_dual_simplex"),
            (4, 64, "highs_dual_simplex"),
            (3, 86, "highs_ipm"),
            (12, 128, "highs_ipm"),
        ],
    )
    def test_method_pins_the_route(self, n, s, method):
        pmat = np.random.default_rng(n * s).dirichlet(np.ones(s), size=n)
        if n > 2:
            assert (pmat.size > testing_risk.BATCH_CELLS) == (method == "highs_ipm")
        diagnostics = minimax_risks([pmat])[0].diagnostics
        assert diagnostics["method"] == method
        if method == "two_point_sort":
            assert diagnostics["iterations"] is None
        else:
            assert isinstance(diagnostics["iterations"], int)
            assert diagnostics["iterations"] >= 0

    def test_kept_out_of_json_and_equality(self):
        res = minimax_risk(TWO_POINT)
        assert set(res.to_json()) == {"value", "prior", "duality_gap"}
        assert dataclasses.replace(res, diagnostics={"method": "other"}) == res


class TestEquality:
    @pytest.mark.parametrize("n,s", [(2, 5), (3, 8), (4, 100)])
    def test_two_independent_solves_compare_equal(self, n, s):
        """Two solves of one ensemble give distinct prior arrays; they
        compare by their entries, without raising."""
        ens = ens_of(*np.random.default_rng(n * s).dirichlet(np.ones(s), size=n))
        first, second = minimax_risk(ens), minimax_risk(ens)
        assert first.prior is not second.prior
        assert first == second
        assert not first != second

    def test_differences_compare_unequal(self):
        res = minimax_risk(ens_of([0.6, 0.3, 0.1], [0.1, 0.3, 0.6], [0.3, 0.4, 0.3]))
        assert res != dataclasses.replace(res, prior=res.prior[::-1].copy())
        assert res != dataclasses.replace(res, value=res.value + 1e-12)
        assert res != dataclasses.replace(res, duality_gap=res.duality_gap + 1e-12)
        assert res != res.to_json()


class TestOneMember:
    @pytest.mark.parametrize("row", [[0.3, 0.7], [1.0], [0.2, 0.0, 0.5, 0.3]])
    def test_closed_form_without_an_lp(self, row, monkeypatch):
        """A lone member is decided without error: risk 0, gap 0, prior
        [1], and no linear program runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("linprog ran for a one-member ensemble")

        monkeypatch.setattr(testing_risk, "linprog", refuse)
        res = minimax_risks([np.array([row])])[0]
        assert res.value == 0.0
        assert res.duality_gap == 0.0
        assert res.prior.tolist() == [1.0]
        assert res.diagnostics == {"method": "closed_form", "iterations": None}

    def test_mixed_list_keeps_input_order(self):
        rng = np.random.default_rng(28)
        pmats = [rng.dirichlet(np.ones(s), size=n) for n, s in ((1, 4), (3, 5), (1, 2), (2, 6))]
        results = minimax_risks(pmats)
        assert [r.diagnostics["method"] for r in results] == [
            "closed_form",
            "highs_dual_simplex",
            "closed_form",
            "two_point_sort",
        ]
        for pmat, res in zip(pmats, results):
            assert res == minimax_risks([pmat])[0]
