import pytest

import stats


def test_p90_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(90) == 100
    assert stats.min_samples_for(50) == 20
    assert stats.min_samples_for(99) == 1000
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        stats.percentile([1.0] * 99, 90)
    assert stats.percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_percentile_interpolates_between_order_statistics():
    samples = [float(v) for v in range(1, 21)][::-1]
    assert stats.percentile(samples, 50) == pytest.approx(10.5)


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        stats.min_samples_for(100)



def test_fastest_by_position_keeps_enough_per_position_for_the_total():
    # Three rounds of four steps and a partial fourth round; position 1 was
    # slowed in the first round.
    samples = [1.0, 9.0, 3.0, 4.0,
               1.5, 2.0, 3.5, 4.5,
               1.2, 2.2, 3.2, 4.2,
               0.9, 2.1]
    assert stats.rounds_for(4, 8) == 2
    assert stats.fastest_by_position(samples, 4, 8) == [
        [0.9, 1.0], [2.0, 2.1], [3.0, 3.2], [4.0, 4.2]]
    assert stats.fastest_by_position(samples, 4, 4) == [[0.9], [2.0], [3.0], [4.0]]


def test_fastest_by_position_refuses_too_few_rounds():
    with pytest.raises(ValueError, match="position 2 has 1 samples, 2 needed"):
        stats.fastest_by_position([1.0, 2.0, 3.0, 1.0, 2.0], 3, 6)
    with pytest.raises(ValueError):
        stats.rounds_for(0, 100)
