import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim import costmodel
from qotsim.costmodel import ProtocolCost, ProtocolId, total_cost

OTHERS = [p for p in ProtocolId if p is not ProtocolId.PROPOSED]


def reference_crossover():
    """``costmodel.crossover`` as it was before its closed form: a search for
    the first R at which the proposed protocol is at least as cheap as every
    other, up to its old bound of 10,000."""
    for R in range(10_000 + 1):
        if all(total_cost(ProtocolId.PROPOSED, R) <= total_cost(o, R) for o in OTHERS):
            return R
    raise RuntimeError("no crossover found within limit")


@st.composite
def affine_tables(draw):
    """A cost table in which the proposed protocol has the strictly smallest
    slope, so a crossover exists."""
    slope = draw(st.integers(0, 6))
    budget = st.integers(0, 300)
    table = {ProtocolId.PROPOSED: ProtocolCost(slope, draw(budget), draw(budget))}
    for o in OTHERS:
        table[o] = ProtocolCost(draw(st.integers(slope + 1, 8)), draw(budget), draw(budget))
    return table


class TestTotalCost:
    def test_table_formulas(self):
        for R in (0, 1, 29, 30, 31, 100):
            assert total_cost(ProtocolId.YANG2013, R) == 4 * R + 50
            assert total_cost(ProtocolId.YSW2015, R) == 4 * R + 50
            assert total_cost(ProtocolId.YYLSZ2015, R) == 4 * R + 100
            assert total_cost(ProtocolId.PROPOSED, R) == R + 140

    def test_spot_values(self):
        assert total_cost(ProtocolId.PROPOSED, 30) == 170
        assert total_cost(ProtocolId.YANG2013, 30) == 170
        assert total_cost(ProtocolId.YYLSZ2015, 0) == 100

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            total_cost(ProtocolId.PROPOSED, -1)

    def test_affine_increment_equals_per_message_qubits(self):
        for pid, cost in costmodel.TABLE.items():
            for R in (0, 7, 99):
                assert total_cost(pid, R + 1) - total_cost(pid, R) == cost.qubits_per_message


class TestCrossover:
    def test_crossover_is_thirty(self):
        assert costmodel.crossover() == 30 == reference_crossover()

    @given(affine_tables())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_the_search(self, table):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(costmodel, "TABLE", table)
            assert costmodel.crossover() == reference_crossover()

    def test_strictly_cheapest_beyond_crossover(self):
        for R in range(31, 400):
            assert all(total_cost(ProtocolId.PROPOSED, R) < total_cost(o, R) for o in OTHERS)

    def test_not_cheapest_below_crossover(self):
        assert total_cost(ProtocolId.PROPOSED, 29) == 169
        assert total_cost(ProtocolId.YANG2013, 29) == 166
        assert total_cost(ProtocolId.PROPOSED, 31) == 171
        assert total_cost(ProtocolId.YANG2013, 31) == 174


class TestCurve:
    def test_row_count_and_minimality(self):
        rows = list(costmodel.emit_curve(100))
        assert len(rows) == 100
        for R, yang, ysw, yylsz, proposed in rows:
            if R > 30:
                assert proposed < min(yang, ysw, yylsz)

    def test_single_row(self):
        rows = list(costmodel.emit_curve(1))
        assert rows == [(1, 54, 54, 104, 141)]

    def test_columns_nondecreasing(self):
        rows = list(costmodel.emit_curve(50))
        for col in range(1, 5):
            values = [r[col] for r in rows]
            assert values == sorted(values)

    def test_long_curve_is_lazy(self):
        # a curve too long to hold in memory yields its first row at once
        assert next(iter(costmodel.emit_curve(10 ** 12))) == (1, 54, 54, 104, 141)

    def test_rmax_validated(self):
        with pytest.raises(ValueError):
            costmodel.emit_curve(0)

    def test_footnote_mentions_ysw(self):
        assert "ysw" in costmodel.YSW_FOOTNOTE
