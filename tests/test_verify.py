"""Each ``verify`` suite fails on a fault planted in what it checks.

Every plant is active only from d = 3 on, so a suite run over d = 2..6
reports the checks it made at d = 2 before the fault, and the first failing
dimension's detail.  ``PLANTS`` names every suite: a suite cannot be added
without a planted fault that it is shown to catch.  ``WRONG_T`` holds wrong
correlation matrices that ``correlation-bound`` catches through its direct
form.
"""

import pytest

import qchsh.bounds
import qchsh.verify
from qchsh.cli import main
from qchsh.correlation import CorrelationMatrix
from qchsh.errors import ValidationError
from qchsh.representation import GellMannBasis
from qchsh.verify import SUITES, SuiteResult, run_suites


def _scaled_method(monkeypatch, name, factor):
    right = getattr(GellMannBasis, name)

    def planted(self, x):
        return right(self, x) * (factor if self.dim >= 3 else 1.0)

    monkeypatch.setattr(GellMannBasis, name, planted)


def _changed_correlations(monkeypatch, change):
    right = qchsh.verify.correlation_matrix

    def planted(state):
        correlations = right(state)
        if correlations.dim < 3:
            return correlations
        return CorrelationMatrix(change(correlations.matrix))

    monkeypatch.setattr(qchsh.verify, "correlation_matrix", planted)


def _scaled_correlations(monkeypatch, factor):
    _changed_correlations(monkeypatch, lambda t: factor * t)


def plant_orthogonality(monkeypatch):
    right = qchsh.verify.build_gellmann_basis

    def corrupted(d):
        if d < 3:
            return right(d)
        # a fresh basis, so the shared one stays intact
        fake = GellMannBasis(d)
        stack = fake.stack.copy()
        stack[0] *= 1.01
        stack.setflags(write=False)
        fake.stack = stack
        return fake

    monkeypatch.setattr(qchsh.verify, "build_gellmann_basis", corrupted)


def plant_lemma1(monkeypatch):
    _scaled_method(monkeypatch, "_operator_norms", 2.0)


def plant_roundtrip(monkeypatch):
    _scaled_method(monkeypatch, "_vectors", 1.001)


def plant_correlation_bound(monkeypatch):
    # off the admissible set, in a and b alike: only the 2/d bound sees it
    _scaled_method(monkeypatch, "_boundary", 3.0)


def plant_ghz_closed_form(monkeypatch):
    _scaled_correlations(monkeypatch, 1.05)


def plant_bound_ordering(monkeypatch):
    right = qchsh.bounds.top_two_gram_eigenvalues

    def planted(correlations):
        lam1, lam2 = right(correlations)
        return (1.01 * lam1, lam2) if correlations.dim >= 3 else (lam1, lam2)

    monkeypatch.setattr(qchsh.bounds, "top_two_gram_eigenvalues", planted)


# suite name -> (plant, checks made before the fault, failure detail)
PLANTS = {
    "orthogonality": (plant_orthogonality, 2099, "max |tr - 2*delta| = 4.020e-02"),
    "lemma1": (
        plant_lemma1,
        500,
        "d=3: ratio range [2.000177963152, 2.306741543533] "
        "outside [0.816496580928, 1.154700538379]",
    ),
    "roundtrip": (plant_roundtrip, 1500, "d=3: reconstruction error 3.196e-03"),
    "correlation-bound": (
        plant_correlation_bound,
        1500,
        "d=3: |<a, T b>| = 0.974301849277 exceeds 2/d = 0.666666666667",
    ),
    "ghz-closed-form": (
        plant_ghz_closed_form, 2, "d=3: entry residual 3.333e-02, square residual 4.556e-02"
    ),
    "bound-ordering": (
        plant_bound_ordering, 6, "d=3: GHZ upper bound 1.8903262505010434 != closed form"
    ),
}


def test_every_suite_has_a_plant():
    assert set(PLANTS) == set(SUITES)


@pytest.mark.parametrize("name", list(PLANTS))
def test_suite_fails_on_its_planted_fault(monkeypatch, name):
    plant, checks, detail = PLANTS[name]
    plant(monkeypatch)
    assert run_suites([name], range(2, 7), 500, 0) == [SuiteResult(name, checks, False, detail)]


def _off_direct_form(checks, gap):
    detail = f"d=3: <a, T b> is {gap} off tr[rho (X_a x X_b)]"
    return SuiteResult("correlation-bound", checks, False, detail)


# a wrong T that correlation-bound should catch -> its SuiteResult
WRONG_T = {
    "transposed": (
        lambda monkeypatch: _changed_correlations(monkeypatch, lambda t: t.T),
        _off_direct_form(1500, "5.844e-02"),
    ),
    "scaled by 1.2": (
        lambda monkeypatch: _scaled_correlations(monkeypatch, 1.2),
        _off_direct_form(1500, "1.467e-02"),
    ),
    "scaled by 4": (
        lambda monkeypatch: _scaled_correlations(monkeypatch, 4.0),
        _off_direct_form(1500, "2.201e-01"),
    ),
}


@pytest.mark.parametrize("fault", list(WRONG_T))
def test_correlation_bound_on_a_wrong_t(monkeypatch, fault):
    plant, result = WRONG_T[fault]
    plant(monkeypatch)
    assert run_suites(["correlation-bound"], range(2, 7), 500, 0) == [result]


def test_correlation_bound_draws_its_admissible_pairs_once_per_dimension(monkeypatch):
    calls = []
    right = GellMannBasis._operator_norms

    def counted(self, n):
        calls.append(self.dim)
        return right(self, n)

    monkeypatch.setattr(GellMannBasis, "_operator_norms", counted)
    run_suites(["correlation-bound"], range(2, 7), 500, 0)
    # one _boundary batch for a and one for b, whatever the number of states
    assert calls == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6]


def test_unknown_suite_is_refused_before_any_suite_runs(monkeypatch):
    calls = []
    right = SUITES["lemma1"]

    def recording(*args):
        calls.append(args)
        return right(*args)

    monkeypatch.setitem(qchsh.verify.SUITES, "lemma1", recording)
    with pytest.raises(ValidationError, match="unknown suite 'nope'"):
        run_suites(["lemma1", "nope"], (2,), 5, 0)
    assert calls == []


def test_empty_suite_list_runs_no_suite():
    # only names=None means every suite
    assert run_suites([], (2,), 5, 0) == []


def _verify_lines(capsys, *argv):
    code = main(["verify", "--dims", "2:3", "--trials", "50", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return out.splitlines()


def test_each_suite_alone_prints_its_line_from_the_full_run(capsys):
    # every suite draws from its own stream, so running it alone changes nothing
    full = _verify_lines(capsys)
    assert full[-1] == f"suites passed: {len(SUITES)}/{len(SUITES)}"
    for name, line in zip(SUITES, full):
        assert line.startswith(f"{name}: PASS")
        assert _verify_lines(capsys, "--suite", name) == [line, "suites passed: 1/1"]
