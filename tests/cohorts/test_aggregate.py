"""Property tests for the exact cohort accounting algebra.

The whole fluid layer rests on one identity — ``fold(expand(agg, n))
== agg`` for every n — because that is what lets a run expand a cohort
at any event boundary (takeover crossing, DCR rehome, PPR replay) and
fold the results back without losing a single count.  These properties
pin it with hypothesis, alongside the exactness of the integer split
and the weighted read-time view.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.cohorts import CohortAggregate, expand, fold, modeled

#: Deterministic example selection: the suite must never flake.
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

counter_names = st.sampled_from(
    ["get_started", "get_ok", "get_shed", "posts_started", "post_ok",
     "sessions_established", "reconnects", "packets_sent", "packets_acked"])
counts = st.dictionaries(counter_names, st.integers(0, 10_000), max_size=6)
aggregates = st.builds(
    CohortAggregate,
    cohort=st.sampled_from(["web-clients/c0", "mqtt-clients/c3"]),
    size=st.integers(0, 100_000),
    weight=st.sampled_from([1.0, 2.5, 50.0, 400.0]),
    rep_counts=counts,
    solo_counts=counts)


@SETTINGS
@given(agg=aggregates, parts=st.integers(1, 40))
def test_fold_expand_is_identity_on_counters(agg, parts):
    assert fold(expand(agg, parts)) == agg


@SETTINGS
@given(agg=aggregates, parts=st.integers(1, 40))
def test_expand_loses_nothing_per_part(agg, parts):
    pieces = expand(agg, parts)
    assert len(pieces) == parts
    assert sum(p.size for p in pieces) == agg.size
    for name, value in agg.rep_counts.items():
        assert sum(p.rep_counts.get(name, 0) for p in pieces) == value
    for piece in pieces:
        assert piece.weight == agg.weight
        # No split may manufacture counts: every piece stays <= parent.
        for name, value in piece.rep_counts.items():
            assert 0 <= value <= agg.rep_counts[name]


@SETTINGS
@given(agg=aggregates, parts=st.integers(1, 12))
def test_modeled_commutes_with_expand(agg, parts):
    """The weighted view of the whole equals the sum of the parts'."""
    whole = modeled(agg)
    split = {}
    for piece in expand(agg, parts):
        for name, value in modeled(piece).items():
            split[name] = split.get(name, 0.0) + value
    assert set(split) <= set(whole)
    for name, value in whole.items():
        assert split.get(name, 0.0) == pytest.approx(value)


@SETTINGS
@given(agg=aggregates)
def test_modeled_weights_reps_but_not_solos(agg):
    view = modeled(agg)
    for name in set(agg.rep_counts) | set(agg.solo_counts):
        expected = (agg.rep_counts.get(name, 0) * agg.weight
                    + agg.solo_counts.get(name, 0))
        assert view[name] == pytest.approx(expected)


def test_fold_refuses_mixed_weights():
    a = CohortAggregate(cohort="c0[0/2]", size=5, weight=2.0)
    b = CohortAggregate(cohort="c0[1/2]", size=5, weight=3.0)
    with pytest.raises(ValueError):
        fold([a, b])
    with pytest.raises(ValueError):
        fold([])


def test_fold_recovers_the_parent_cohort_name():
    parent = CohortAggregate(cohort="web-clients/c7", size=9, weight=3.0,
                             rep_counts={"get_ok": 10})
    assert fold(expand(parent, 4)).cohort == "web-clients/c7"


def test_expand_rejects_zero_parts():
    agg = CohortAggregate(cohort="c0", size=1, weight=1.0)
    with pytest.raises(ValueError):
        expand(agg, 0)


def test_equality_ignores_zero_entries():
    a = CohortAggregate(cohort="c0", size=3, weight=1.0,
                        rep_counts={"get_ok": 4, "get_shed": 0})
    b = CohortAggregate(cohort="c0", size=3, weight=1.0,
                        rep_counts={"get_ok": 4})
    assert a == b
