"""Verify's checks have teeth: each library entry that ``verify`` imports,
made slightly wrong in ``verify``'s namespace, fails the check that reads
it.

Each case runs only the suite that holds its checks, at suite seed 0 and,
if some named check passed there, at seed 1; every named check must fail
at one of them.  The smallest perturbation each check still catches so,
from a sweep of d over 0.5, 0.1, 0.05, 0.01, ..., 5e-12, 1e-12 (the gate
itself uses the perturbations of ``MUTATIONS``, none below these):

=====================================  ==============================  =========
perturbed entry                        check                           smallest
=====================================  ==============================  =========
weighted_divergence_floor x (1 + d)    weighted_soundness              5e-9
uniform_divergence_floor x (1 + d)     uniform_floor_shape             1e-9
implicit_risk_bound + d                implicit_vs_oracle              5e-4
tangent_risk_bound + d                 implicit_vs_oracle              1e-5
named_risk_bounds + d                  named_bound_soundness           1e-9
two_point_target x (1 + d)             two_point_sharpness             <= 1e-12
closed_forms values x (1 + d)          informativity_oracles           5e-6
closed_forms values x (1 + d)          upper_chain                     5e-12
kkt_solutions values x (1 + d)         informativity_oracles           5e-6
covering_bounds bounds x (1 - d)       covering_validity               5e-10
simple_upper_chains x (1 - d)          upper_chain                     5e-12
divergence_matrix x (1 + d)            covering_validity               5e-10
bayes_risks x (1 + d)                  map_achieves_bayes              5e-12
bayes_risks x (1 + d)                  minimax_dominates_priors        1e-3
=====================================  ==============================  =========
"""

import pytest

from fdivbounds import verify


def scale_item(out, item, factor):
    """The result tuple ``out`` with its ``item``-th entry times ``factor``."""
    return out[:item] + (out[item] * factor,) + out[item + 1 :]


#: (entry, the change to its result, suite, the checks that must fail)
MUTATIONS = [
    ("weighted_divergence_floor", lambda out: out * 1.01, "mixture", ["weighted_soundness"]),
    ("uniform_divergence_floor", lambda out: out * 1.01, "mixture", ["uniform_floor_shape"]),
    ("implicit_risk_bound", lambda out: out + 0.005, "mixture", ["implicit_vs_oracle"]),
    ("tangent_risk_bound", lambda out: out + 0.005, "mixture", ["implicit_vs_oracle"]),
    ("named_risk_bounds", lambda out: out + 0.005, "mixture", ["named_bound_soundness"]),
    ("two_point_target", lambda out: out * 1.01, "mixture", ["two_point_sharpness"]),
    ("closed_forms", lambda out: scale_item(out, 1, 1.0 + 1e-5), "jf",
     ["informativity_oracles", "upper_chain"]),
    ("kkt_solutions", lambda out: scale_item(out, 1, 1.0 + 1e-5), "jf",
     ["informativity_oracles"]),
    ("covering_bounds", lambda out: scale_item(out, 2, 0.99), "jf", ["covering_validity"]),
    ("simple_upper_chains", lambda out: tuple(part * 0.99 for part in out), "jf",
     ["upper_chain"]),
    ("divergence_matrix", lambda out: out * (1.0 + 1e-4), "jf", ["covering_validity"]),
    ("bayes_risks", lambda out: out * (1.0 + 1e-3), "core",
     ["map_achieves_bayes", "minimax_dominates_priors"]),
]


@pytest.mark.parametrize(
    "entry, change, suite, checks", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_a_wrong_library_entry_fails_its_check(entry, change, suite, checks, monkeypatch):
    right = getattr(verify, entry)
    monkeypatch.setattr(verify, entry, lambda *args, **kwargs: change(right(*args, **kwargs)))
    # a seed-free record computed before the patch would hide it
    monkeypatch.setattr(verify, "_SEED_FREE_RECORDS", {})
    missed = set(checks)
    for seed in (0, 1):
        report = verify.run_suite(suite, seed)["suites"][suite]["checks"]
        missed -= {c["name"] for c in report if not c["pass"]}
        if not missed:
            break
    assert not missed
