import pytest

from qotsim import costmodel
from qotsim.costmodel import ProtocolId, total_cost


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
        assert costmodel.crossover() == 30

    def test_strictly_cheapest_beyond_crossover(self):
        others = [p for p in ProtocolId if p is not ProtocolId.PROPOSED]
        for R in range(31, 400):
            assert all(total_cost(ProtocolId.PROPOSED, R) < total_cost(o, R) for o in others)

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
