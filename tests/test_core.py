import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credal import core
from credal.core import format_floats
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


def test_adopted_array_is_checked_and_frozen_without_a_copy():
    v = np.array([0.25, 0.75])
    p = ProbabilityVector._adopt(v)
    assert p.values is v and not v.flags.writeable
    for bad in ([0.6, 0.6], [-0.1, 1.1], [0.5, np.inf], [[0.5, 0.5]], []):
        with pytest.raises(ValueError):
            ProbabilityVector._adopt(np.array(bad, dtype=float))


def test_is_probabilistic_examples():
    assert is_probabilistic((0.5, 0.5), eps=1e-9) is True
    assert is_probabilistic((0.6, 0.6), eps=1e-9) is False
    assert is_probabilistic((0.3, 0.7), eps=1e-9) is True
    with pytest.raises(ValueError):
        is_probabilistic((np.nan, 0.5))


@pytest.mark.parametrize("eps", [-1.0, -1e-300, math.nan])
def test_negative_or_nan_eps_rejected(eps):
    # such an eps let [0.5, 0.7] pass as probabilistic (NaN) or rejected
    # [0.5, 0.5] (negative)
    with pytest.raises(ValueError, match="eps must be non-negative"):
        ProbabilityVector([0.5, 0.7], eps=eps)
    with pytest.raises(ValueError, match="eps must be non-negative"):
        is_probabilistic([0.5, 0.5], eps)
    ProbabilityVector([0.5, 0.5], eps=0.0)
    assert is_probabilistic([0.5, 0.5], 0.0)


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


def python_text(values) -> list:
    return [format(v, ".17g") for v in np.ravel(values).tolist()]


def assert_formats_like_python(values):
    got = format_floats(values)
    assert got.dtype == np.dtype("S24") and got.shape == np.shape(values)
    assert [b.decode() for b in got.ravel().tolist()] == python_text(values)


# doubles whose long-double D = v * 10**(16 - X) falls on the other side of
# a rounding tie from the exact one, so only the fallback formats them right
NEAR_TIES = [
    float.fromhex(h)
    for h in (
        "0x1.519fda0242b26p-320", "0x1.be537e8919daep+693", "0x1.31082f6f4c1dep+177",
        "0x1.94e3359ed1cd8p-214", "0x1.2fe8e4ab0078fp+365", "0x1.80e48e0ea98a8p-732",
        "0x1.90fab4b2ae6c2p-237", "0x1.bf92a0ce0128dp+931", "0x1.9cc4303dc5d20p-709",
        "0x1.7b771f5ef5243p-174", "0x1.4e22085ab1c1fp+473", "0x1.8828a9f2b10a6p-812",
    )
]


def boundary_values() -> np.ndarray:
    """Each power of ten with its neighbours 1 ulp away, and the values at
    the edges of the float range and of the notation switches."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    edges = [0.0, -0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max, np.inf, -np.inf, np.nan]
    edges += [9.9999999999999e-06, 9.99999999999999e-05, 0.0001, 0.00012345, 1e16 + 2, 99999999999999984.0]
    return np.concatenate(near + [edges, NEAR_TIES])


def test_format_floats_matches_python_at_boundaries():
    # includes the doubles just below 1e-14, 1e-78 and 1e153, whose 17
    # digits round up to the next power of ten, and the near ties
    assert_formats_like_python(boundary_values())


def test_format_floats_matches_python_on_random_bit_patterns():
    bits = np.random.default_rng(20).integers(-(2**63), 2**63, 20_000, dtype=np.int64, endpoint=False)
    values = bits.view(float)
    assert_formats_like_python(values)
    assert_formats_like_python(np.abs(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
@example([0x7FEFFFFFFFFFFFFF, 1, 0, -(2**63), 0x3FEFFFFFFFFFFFFF])
def test_format_floats_matches_python_on_any_bit_pattern(bits):
    # covers subnormals, negatives, NaN payloads and infinities
    assert_formats_like_python(np.array(bits, dtype=np.int64).view(float))


@pytest.mark.parametrize(
    "values",
    [
        np.float64(0.1),
        np.array([1 / 3]),
        np.arange(1.0, 13.0).reshape(3, 4) / 7,
        np.linspace(1e-9, 3.0, 60).reshape(3, 4, 5),
        (np.arange(1.0, 61.0).reshape(3, 4, 5) / 7)[:, ::2, ::-3],
        (np.arange(1.0, 13.0).reshape(3, 4) / 11).T,
        np.arange(10_000.0) / 3,  # more than one chunk
        np.empty((0, 3)),
    ],
)
def test_format_floats_keeps_shape(values):
    assert_formats_like_python(values)


def test_format_floats_fallback_gives_the_same_bytes(monkeypatch):
    # a tolerance of .5 or more sends every entry to format_float, as on
    # platforms whose long double is only a double
    values = np.concatenate([boundary_values(), np.random.default_rng(21).random(5000)])
    fast = format_floats(values)
    monkeypatch.setattr(core, "_HALF_TOL", 0.5)
    monkeypatch.setattr(core, "_digits", None)
    slow = format_floats(values)
    assert np.array_equal(slow, fast)
    assert [b.decode() for b in slow.tolist()] == python_text(values)


@pytest.mark.skipif(core._HALF_TOL >= 0.5, reason="long double is only a double here")
def test_powers_of_ten_are_correctly_rounded():
    # the error bound behind _HALF_TOL assumes it
    powers = core._format_tables()[0]
    u = Fraction(core._U)
    for k, p in zip(range(-core._POW_LO, core._POW_HI + 1), powers):
        exact = Fraction(10) ** k
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= u * exact
