import statistics

import pytest

from stats import summary


def test_summary_matches_the_standard_library():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    s = summary(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (q1, 5.5, q3, 10)
    assert (q1, q3) == (2.75, 8.25)


def test_summary_of_even_count_takes_the_mean_of_the_middle_pair():
    assert summary([4.0, 1.0, 3.0, 2.0])["median"] == 2.5


def test_summary_of_one_value():
    assert summary([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "n": 1}


def test_summary_rejects_no_values():
    with pytest.raises(ValueError):
        summary([])
