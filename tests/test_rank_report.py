from __future__ import annotations

import pytest

import waring.rank_oracle as oracle
from waring.errors import NotApplicableError


def test_one_report_validates_once_and_counts_two_dimensions(monkeypatch):
    calls = {"validate": 0, "sym_dimension": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(oracle, "_validate_pair", counted("validate", oracle._validate_pair))
    monkeypatch.setattr(oracle, "sym_dimension", counted("sym_dimension", oracle.sym_dimension))
    oracle.rank_report(5, 7)
    assert calls == {"validate": 1, "sym_dimension": 2}


@pytest.mark.parametrize("k", range(3, 8))
@pytest.mark.parametrize("n", range(2, 12))
def test_the_closed_forms_are_the_report_fields(k, n):
    report = oracle.rank_report(k, n)
    assert oracle.generic_symmetric_rank(k, n) == report.generic_rank
    assert oracle.symmetric_rank_bounds(k, n) == (report.lower_bound, report.upper_bound)
    assert oracle.fiber_dimension(k, n) == report.fiber_dim
    assert oracle.is_exceptional(k, n) is report.is_exception
    if report.is_exception:
        with pytest.raises(NotApplicableError, match=f"exceptional pair \\({k}, {n}\\)"):
            oracle.finitely_many_generic_decompositions(k, n)
    else:
        assert oracle.finitely_many_generic_decompositions(k, n) is report.finitely_many_decompositions
