import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosterstat.bayes import (
    EvidenceItem,
    OddsState,
    odds_from_probability,
    posterior_probability,
    update,
)

DE_VOS_LRS = (0.5, 50.0, 7000.0, 5.0)


def chain(prior_odds, lrs):
    state = OddsState(prior_odds=prior_odds)
    for i, lr in enumerate(lrs):
        state = update(state, EvidenceItem(f"E{i + 1}", lr))
    return state


class TestOddsFromProbability:
    def test_even(self):
        assert odds_from_probability(0.5) == 1.0

    def test_small_prior(self):
        assert odds_from_probability(1e-5) == pytest.approx(1.00001e-5, rel=1e-9, abs=0)

    def test_inverse_consistency(self):
        assert odds_from_probability(8.75 / 9.75) == pytest.approx(8.75, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_boundary_rejected(self, p):
        with pytest.raises(ValueError):
            odds_from_probability(p)


class TestUpdate:
    def test_lr_one_is_identity(self):
        state = OddsState(prior_odds=0.3)
        updated = update(state, EvidenceItem("null", 1.0))
        assert updated.posterior_odds == state.posterior_odds

    def test_published_chain(self):
        state = chain(1e-5, DE_VOS_LRS)
        assert state.posterior_odds == pytest.approx(8.75, abs=1e-12)

    def test_strict_odds_convention_close_but_distinct(self):
        state = chain(odds_from_probability(1e-5), DE_VOS_LRS)
        assert 8.74 <= state.posterior_odds <= 8.76
        assert state.posterior_odds != 8.75

    def test_two_updates_compose(self):
        state = OddsState(prior_odds=0.2)
        stepped = update(update(state, EvidenceItem("a", 2.0)), EvidenceItem("b", 3.0))
        direct = update(state, EvidenceItem("ab", 6.0))
        assert stepped.posterior_odds == pytest.approx(
            direct.posterior_odds, rel=1e-14, abs=0)

    def test_order_independent(self):
        reference = chain(1e-5, DE_VOS_LRS).posterior_odds
        for perm in permutations(DE_VOS_LRS):
            assert chain(1e-5, perm).posterior_odds == pytest.approx(
                reference, rel=1e-12, abs=0)

    def test_applied_items_recorded(self):
        state = chain(1e-5, DE_VOS_LRS)
        assert [e.lr for e in state.applied] == list(DE_VOS_LRS)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(prior=st.floats(min_value=1e-300, max_value=1e300),
           lrs=st.lists(st.floats(min_value=1e-300, max_value=1e300), max_size=12))
    def test_chain_equals_the_state_built_at_once(self, prior, lrs):
        items = tuple(EvidenceItem(f"E{i + 1}", lr) for i, lr in enumerate(lrs))
        try:
            expected = OddsState(prior, items)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                chain(prior, lrs)
            assert str(raised.value) == str(exc)
            return
        state = chain(prior, lrs)
        assert (state.prior_odds, state.applied, state.posterior_odds) == (
            expected.prior_odds, expected.applied, expected.posterior_odds)

    def test_state_invariant_enforced(self):
        state = OddsState(prior_odds=2.0,
                          applied=(EvidenceItem("a", 3.0),))
        assert state.posterior_odds == pytest.approx(6.0, abs=0)


class TestPosteriorProbability:
    def test_published_value(self):
        state = chain(1e-5, DE_VOS_LRS)
        prob = posterior_probability(state)
        assert prob == pytest.approx(8.75 / 9.75, rel=1e-12, abs=0)
        assert 0.897 <= prob <= 0.898

    def test_even_odds(self):
        assert posterior_probability(OddsState(prior_odds=1.0)) == 0.5

    def test_small_odds_limit(self):
        assert posterior_probability(OddsState(prior_odds=1e-12)) == pytest.approx(
            0.0, abs=1e-11)

    def test_roundtrip_with_odds(self):
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            state = OddsState(prior_odds=odds_from_probability(p))
            assert posterior_probability(state) == pytest.approx(p, rel=1e-12, abs=0)


class TestEvidenceItem:
    @pytest.mark.parametrize("lr", [0.0, -1.0, math.inf, math.nan, 10**400])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValueError):
            EvidenceItem("bad", lr)


class TestOddsState:
    @pytest.mark.parametrize("odds", [0.0, -1.0, math.inf, math.nan, 10**400],
                             ids=["zero", "negative", "inf", "nan", "10**400"])
    def test_bad_prior_odds_rejected(self, odds):
        with pytest.raises(ValueError, match="prior odds must be positive and finite"):
            OddsState(prior_odds=odds)


class TestOverflow:
    def test_update_past_float_range_names_the_item(self):
        state = update(OddsState(prior_odds=1.0), EvidenceItem("first", 1e300))
        with pytest.raises(ValueError, match="after evidence 'second'"):
            update(state, EvidenceItem("second", 1e300))

    def test_state_built_from_applied_items_checks_too(self):
        items = (EvidenceItem("a", 1e300), EvidenceItem("b", 1e300))
        with pytest.raises(ValueError, match="after evidence 'b'"):
            OddsState(prior_odds=1.0, applied=items)

    def test_largest_finite_product_is_kept(self):
        state = update(OddsState(prior_odds=1e8), EvidenceItem("big", 1e300))
        assert state.posterior_odds == 1e308

    def test_underflow_to_zero_names_the_item(self):
        items = (EvidenceItem("a", 5e-324), EvidenceItem("b", 0.5))
        with pytest.raises(ValueError, match="posterior odds underflow .* after evidence 'b'"):
            OddsState(prior_odds=1.0, applied=items)

    def test_product_is_formed_in_the_given_order(self):
        lrs = (1e200, 1e200, 1e-300)
        with pytest.raises(ValueError, match="overflow"):
            chain(1.0, lrs)
        assert chain(1.0, lrs[::-1]).posterior_odds == pytest.approx(1e100)
