import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credal import (
    HypothesisSet,
    ProbabilityVector,
    Credibility,
    ideal_credibility,
    is_probabilistic,
    read_labeled_csv,
    uniform,
    write_labeled_csv,
)


def test_hypothesis_set_validation():
    hs = HypothesisSet(("H1", "H2", "H3"))
    assert len(hs) == 3
    assert hs.index("H2") == 1
    with pytest.raises(ValueError):
        HypothesisSet(())
    with pytest.raises(ValueError):
        HypothesisSet(("H1", "H1"))
    with pytest.raises(ValueError):
        HypothesisSet(("H1", ""))


def test_credibility_range_checks():
    c = Credibility([0.0, 0.5, 1.0])
    assert len(c) == 3
    with pytest.raises(ValueError):
        Credibility([0.5, 1.2])
    with pytest.raises(ValueError):
        Credibility([-0.1, 0.5])
    with pytest.raises(ValueError):
        Credibility([np.nan, 0.5])
    with pytest.raises(ValueError):
        Credibility([])


def test_values_are_immutable():
    p = ProbabilityVector([0.3, 0.7])
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_probability_vector_validation():
    ProbabilityVector([0.3, 0.7])
    with pytest.raises(ValueError):
        ProbabilityVector([0.6, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector([-0.1, 1.1])
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, np.inf])


def test_is_probabilistic_examples():
    assert is_probabilistic((0.5, 0.5), eps=1e-9) is True
    assert is_probabilistic((0.6, 0.6), eps=1e-9) is False
    assert is_probabilistic((0.3, 0.7), eps=1e-9) is True
    with pytest.raises(ValueError):
        is_probabilistic((np.nan, 0.5))


def test_ideal_credibility_examples():
    np.testing.assert_array_equal(ideal_credibility(0, 2).values, [1.0, 0.0])
    np.testing.assert_array_equal(ideal_credibility(2, 3).values, [0.0, 0.0, 1.0])
    with pytest.raises(IndexError):
        ideal_credibility(1, 1)


def test_uniform_examples():
    np.testing.assert_array_equal(uniform(4).values, [0.25] * 4)
    np.testing.assert_array_equal(uniform(1).values, [1.0])
    with pytest.raises(ValueError):
        uniform(0)


def test_ideal_credibility_always_probabilistic():
    for n in range(1, 8):
        for j in range(n):
            assert is_probabilistic(ideal_credibility(j, n))


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12))
def test_probability_vectors_pass_their_own_test(raw):
    v = np.asarray(raw)
    p = ProbabilityVector(v / v.sum())
    assert is_probabilistic(p, 1e-9)


def test_invalid_vectors_detected():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        v = rng.dirichlet(np.ones(n))
        bad = v.copy()
        bad[rng.integers(0, n)] -= 1.5  # force a negative entry
        assert not is_probabilistic(bad)
        assert not is_probabilistic(v * float(rng.uniform(1.5, 3.0)))  # bad sum


def test_csv_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    values = np.array([0.1234567890123456789, 0.5, 1 / 3])
    write_labeled_csv(path, ["a", "b", "c"], values)
    text = path.read_text()
    assert text.splitlines()[0] == "label,value"
    hs, back = read_labeled_csv(path)
    assert hs.labels == ("a", "b", "c")
    np.testing.assert_array_equal(back, values)  # 17 significant digits round-trip


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,prob\na,0.5\n")
    with pytest.raises(ValueError):
        read_labeled_csv(path)


def test_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,value\na,0.25\nb,0.75\n")
    hs, values = read_labeled_csv(path)
    assert hs.labels == ("a", "b")
    np.testing.assert_array_equal(values, [0.25, 0.75])


def test_csv_rejects_blank_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("label,value\na,0.5\n\nb,0.5\n")
    with pytest.raises(ValueError, match=r"blank\.csv: line 3: blank line"):
        read_labeled_csv(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_csv_rejects_non_finite_values(tmp_path, text):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"label,value\na,0.5\nb,{text}\n")
    with pytest.raises(ValueError, match=rf"nonfinite\.csv: line 3: value for 'b' is not finite"):
        read_labeled_csv(path)
