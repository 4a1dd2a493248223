import math
import os
import re
import runpy
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from credal import core
from credal.core import format_floats
from credal.experiments import ExperimentConfig, ExperimentResult, run_experiment
from credal import (
    Gaussian,
    ModelSpec,
    UpdateRule,
    ProbabilityVector,
    Credibility,
    conservative_normalize,
    ideal_credibility,
    is_probabilistic,
    project_to_simplex,
    read_labeled_csv,
    uniform,
    verify_dominance,
    write_labeled_csv,
)


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
        is_probabilistic([0.5, 0.5], eps)
    assert is_probabilistic([0.5, 0.5], 0.0)


def bad_vector(n, kind):
    """The uniform vector of length ``n`` with one kind of fault planted."""
    v = np.full(n, 1.0 / n)
    if kind == "mixed-infinities":
        v[[0, n // 2, n - 1]] = [np.inf, -np.inf, 0.0]
    elif kind == "negative-and-inf":
        v[[0, n - 1]] = [-0.25, np.inf]
    elif kind == "negative":
        v[n // 2] = -0.25
    elif kind == "wrong-sum":
        v *= 1.5
    else:
        v[n // 2] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind]
    return v


FINITE = (ValueError, "entries must be finite")
# the error of each call, in the order ProbabilityVector,
# conservative_normalize, project_to_simplex, verify_dominance and
# is_probabilistic, or None where it returns (is_probabilistic False)
OUTCOMES = {
    "mixed-infinities": [(ValueError, "probability entries must be finite")] + [FINITE] * 4,
    "nan": [(ValueError, "probability entries must be finite")] + [FINITE] * 4,
    "+inf": [(ValueError, "probability entries must be finite")] + [FINITE] * 4,
    "-inf": [(ValueError, "probability entries must be finite")] + [FINITE] * 4,
    "negative-and-inf": [(ValueError, "probability entries must be finite")] + [FINITE] * 4,
    "negative": [(ValueError, "probability entries must be non-negative")] + [None] * 4,
    "wrong-sum": [(ValueError, "probabilities must sum to 1 (got 1.5)")] + [None] * 4,
}


@pytest.mark.parametrize("n", [3, 1 << 14])
@pytest.mark.parametrize("kind", list(OUTCOMES))
def test_faulty_vectors_raise_the_stated_errors_under_warnings_as_errors(n, kind):
    # a sum that meets both +inf and -inf warns, which pytest turns into
    # an error here; the min must find those entries first
    calls = (ProbabilityVector, conservative_normalize, project_to_simplex, verify_dominance, is_probabilistic)
    for call, outcome in zip(calls, OUTCOMES[kind]):
        if outcome is None:
            result = call(bad_vector(n, kind))
            if call is is_probabilistic:
                assert result is False
        else:
            error, message = outcome
            with pytest.raises(error) as info:
                call(bad_vector(n, kind))
            assert info.type is error and str(info.value) == message


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


@pytest.mark.parametrize("bad", [True, 1.0, 2.5, "2", None])
def test_ideal_credibility_and_uniform_reject_non_integer_arguments(bad):
    # numpy took True as a mask that set every entry, and 1.0 as an index
    # only to fail with its own IndexError text
    for call, name in (
        (lambda: ideal_credibility(bad, 2), "j"),
        (lambda: ideal_credibility(0, bad), "n"),
        (lambda: uniform(bad), "n"),
    ):
        with pytest.raises(ValueError, match=rf"^{name}: must be an integer, got {re.escape(repr(bad))}$"):
            call()
    np.testing.assert_array_equal(ideal_credibility(np.int64(1), np.int64(2)).values, [0.0, 1.0])
    np.testing.assert_array_equal(uniform(np.int64(2)).values, [0.5, 0.5])


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
    values = np.array([0.1234567890123456789, 0.5, 1 / 3, -0.0, -2.5e-300])
    labels = ["a", "b", "c", "d", "e"]
    write_labeled_csv(path, labels, values)
    text = path.read_text()
    assert text.splitlines() == ["label,value"] + [f"{k},{v:.17g}" for k, v in zip(labels, values.tolist())]
    read_labels, back = read_labeled_csv(path)
    assert read_labels == tuple(labels)
    np.testing.assert_array_equal(back, values)  # 17 significant digits round-trip


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,prob\na,0.5\n")
    with pytest.raises(ValueError):
        read_labeled_csv(path)


def test_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,value\na,0.25\nb,0.75\n")
    labels, values = read_labeled_csv(path)
    assert labels == ("a", "b")
    np.testing.assert_array_equal(values, [0.25, 0.75])


def test_csv_rejects_blank_line(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("label,value\na,0.5\n\nb,0.5\n")
    with pytest.raises(ValueError, match=r"blank\.csv: line 3: blank line"):
        read_labeled_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [("a,0.5\n,0.5\n", "line 3: empty label"), ("a,0.5\nb,0.25\na,0.25\n", "line 4: repeated label 'a'")],
)
def test_csv_rejects_empty_or_repeated_labels(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text("label,value\n" + body)
    with pytest.raises(ValueError, match=rf"labels\.csv: {message}$"):
        read_labeled_csv(path)


def test_csv_rejects_a_header_with_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,value\n")
    with pytest.raises(ValueError, match=r"empty\.csv: no rows after the header$"):
        read_labeled_csv(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_csv_rejects_non_finite_values(tmp_path, text):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"label,value\na,0.5\nb,{text}\n")
    with pytest.raises(ValueError, match=rf"nonfinite\.csv: line 3: value for 'b' is not finite"):
        read_labeled_csv(path)


@pytest.mark.parametrize(
    "labels, values, message",
    [
        (["a", "b"], [0.5, math.nan], "value for 'b' is not finite: nan"),
        (["a", "b"], [math.inf, 0.5], "value for 'a' is not finite: inf"),
        (["a", "a"], [0.5, 0.5], "repeated label 'a'"),
        (["a", ""], [0.5, 0.5], "label '': must be a non-empty string"),
        (["a", 1], [0.5, 0.5], "label 1: must be a non-empty string"),
        (["a", None], [0.5, 0.5], "label None: must be a non-empty string"),
    ],
    ids=["nan", "inf", "repeated", "empty", "int", "none"],
)
def test_csv_writer_refuses_what_the_reader_refuses(tmp_path, labels, values, message):
    # each of these files used to be written, and read_labeled_csv refused it
    # (or, for the label 1, read it back as the string "1")
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        write_labeled_csv(path, labels, values)
    assert not path.exists()


def labeled_output(size):
    """``write_labeled_csv`` of ``size`` rows, and the bytes it must write."""
    labels, values = [f"h{i}" for i in range(size)], np.arange(1, size + 1) / 7
    text = "label,value\r\n" + "".join(f"{k},{v:.17g}\r\n" for k, v in zip(labels, values.tolist()))
    return (lambda path: write_labeled_csv(path, labels, values)), text.encode()


def results_output(horizon):
    """``ExperimentResult.write_csv`` of a run of ``horizon`` steps, and the bytes it must write."""
    models = (ModelSpec("good", Gaussian(0.0, 1.0)), ModelSpec("far", Gaussian(3.0, 1.0)))
    result = run_experiment(ExperimentConfig(0, Gaussian(0.0, 1.0), models, horizon, (UpdateRule.predictive(),)))
    return result.write_csv, result.to_csv_text().encode()


WRITERS = pytest.mark.parametrize("output", [labeled_output, results_output], ids=["labeled", "results"])


@WRITERS
@pytest.mark.parametrize("old, new", [(5, 3), (3, 5), (4, 4)], ids=["shrink", "grow", "same"])
def test_rewriting_a_file_leaves_the_new_bytes_in_the_same_inode(tmp_path, output, old, new):
    path = tmp_path / "out.csv"
    output(old)[0](path)
    inode = path.stat().st_ino
    write, expected = output(new)
    write(path)
    assert path.read_bytes() == expected
    assert path.stat().st_ino == inode


@WRITERS
def test_a_missing_file_is_created_as_open_creates_it(tmp_path, output):
    write, expected = output(3)
    write(tmp_path / "out.csv")
    with open(tmp_path / "plain", "wb"):
        pass
    assert (tmp_path / "out.csv").read_bytes() == expected
    assert (tmp_path / "out.csv").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_an_error_mid_stream_leaves_exactly_the_bytes_written(tmp_path, monkeypatch):
    def failing(rows):
        yield from rows
        raise RuntimeError("mid-stream")

    # the labeled writer's rows: the first two values are formatted, then the third fails
    write, expected = labeled_output(4)
    path = tmp_path / "labeled.csv"
    labeled_output(9)[0](path)
    two_then_fail = lambda v, formatted=core.format_floats: failing(formatted(v)[:2].tolist())
    monkeypatch.setattr(core, "format_floats", lambda v: SimpleNamespace(tolist=lambda: two_then_fail(v)))
    with pytest.raises(RuntimeError, match="mid-stream"):
        write(path)
    assert path.read_bytes() == b"".join(expected.splitlines(keepends=True)[:3])

    # the results writer's blocks: the header and one block, then a failure
    write, expected = results_output(2)
    path = tmp_path / "results.csv"
    results_output(6)[0](path)
    blocks = [b"rule,replication\n", np.frombuffer(b"predictive,0\n", np.uint8)]
    monkeypatch.setattr(ExperimentResult, "_csv_blocks", lambda self: failing(blocks))
    with pytest.raises(RuntimeError, match="mid-stream"):
        write(path)
    assert path.read_bytes() == b"rule,replication\npredictive,0\n"


@WRITERS
@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="POSIX only")
def test_writing_to_dev_null_still_works(output):
    output(3)[0]("/dev/null")


@WRITERS
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX only")
def test_writing_to_a_fifo_still_works(tmp_path, output):
    # a FIFO has size 0 and no position, so it is neither asked for one nor shrunk
    path = tmp_path / "fifo"
    os.mkfifo(path)
    write, expected = output(3)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    write(path)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [expected]


@WRITERS
def test_a_directory_as_the_path_still_raises(tmp_path, output):
    with pytest.raises(IsADirectoryError):
        output(3)[0](tmp_path)


def python_text(values) -> list:
    return [format(v, ".17g") for v in np.ravel(values).tolist()]


def assert_formats_like_python(values):
    got = format_floats(values)
    assert got.dtype == np.dtype("S24") and got.shape == np.shape(values)
    assert [b.decode() for b in got.ravel().tolist()] == python_text(values)


# doubles whose D = v * 10**(16 - X) lies within 8e-6 to 1.1e-3 of a
# rounding tie without being one: the bulk path must round them right
NEAR_TIES = [
    float.fromhex(h)
    for h in (
        "0x1.519fda0242b26p-320", "0x1.be537e8919daep+693", "0x1.31082f6f4c1dep+177",
        "0x1.94e3359ed1cd8p-214", "0x1.2fe8e4ab0078fp+365", "0x1.80e48e0ea98a8p-732",
        "0x1.90fab4b2ae6c2p-237", "0x1.bf92a0ce0128dp+931", "0x1.9cc4303dc5d20p-709",
        "0x1.7b771f5ef5243p-174", "0x1.4e22085ab1c1fp+473", "0x1.8828a9f2b10a6p-812",
    )
]
# doubles whose D ends in exactly .5, so its 17 digits round half to even:
# only these take the per-value fallback
EXACT_TIES = [
    1000000000000000.25, 1000000000000000.75, 100000000000000.125,
    0.5 + 2.0**-18, 0.25 + 2.0**-18, 3 * 2.0**-24,
]


def boundary_values() -> np.ndarray:
    """Each power of ten with its neighbours 1 ulp away, and the values at
    the edges of the float range and of the notation switches."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    edges = [0.0, -0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max, np.inf, -np.inf, np.nan]
    edges += [9.9999999999999e-06, 9.99999999999999e-05, 0.0001, 0.00012345, 1e16 + 2, 99999999999999984.0]
    return np.concatenate(near + [edges, NEAR_TIES, EXACT_TIES])


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
        np.arange(2 * core.FLOAT_BLOCK + 3.0) / 3,  # more than two blocks
        np.empty((0, 3)),
    ],
)
def test_format_floats_keeps_shape(values):
    assert_formats_like_python(values)


def test_format_floats_fallback_gives_the_same_bytes(monkeypatch):
    # a tie bound of .5 sends every positive entry to Python's format
    values = np.concatenate([boundary_values(), np.random.default_rng(21).random(5000)])
    fast = format_floats(values)
    monkeypatch.setattr(core, "_TIE_TOL", 0.5)
    slow = format_floats(values)
    assert np.array_equal(slow, fast)
    assert [b.decode() for b in slow.tolist()] == python_text(values)


def signed_values() -> np.ndarray:
    """Boundary values, near and exact ties, zeros of both signs, subnormals,
    their negatives and the non-finite values."""
    subnormals = np.array([5e-324, 1e-320, np.nextafter(np.finfo(float).tiny, 0.0)])
    values = np.concatenate([boundary_values(), subnormals, np.random.default_rng(23).random(300)])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("block", [7, None])
def test_format_floats_matches_python_at_any_block_size(monkeypatch, block):
    if block:
        monkeypatch.setattr(core, "FLOAT_BLOCK", block)
    values = signed_values()
    assert_formats_like_python(values)
    assert_formats_like_python(values[: 2 * 3 * 101].reshape(2, 3, 101))
    # all positive and finite: the block is formatted without a gather
    assert_formats_like_python(np.concatenate([NEAR_TIES, EXACT_TIES, 10.0 ** np.arange(-300.0, 301.0)]))


def significant_digits(v: float) -> tuple[int, int]:
    """The decimal exponent of ``format(v, ".17g")`` and its number of significant digits."""
    mantissa, _, exponent = format(v, ".17g").partition("e")
    return int(exponent or 0), len(mantissa.replace(".", "").rstrip("0"))


def exponent_notation_values() -> dict:
    """``{(X, nd): v}``: a double whose ``%.17g`` has decimal exponent ``X``
    and ``nd`` significant digits, for each exponent written in exponent
    notation (X < -4 or X >= 17) and each nd from 1 to 17 that some double
    has.  A double whose 17 digits are ``k * 10**(X - nd + 1)`` is one of
    the two that bracket that decimal, since no two doubles lie within half
    a unit of the 17th digit of each other; so trying every ``k`` and both
    neighbours of the nearest double, as for nd <= 2, finds every double
    there is, and for nd >= 3 a few seeded ``k`` from 10**(nd - 1) on find one."""
    rng = np.random.default_rng(24)
    found = {}
    for x in [x for x in range(-324, 309) if x < -4 or x > 16]:
        for nd in range(1, 18):
            low = 10 ** (nd - 1)
            ks = range(low, 10 * low) if nd <= 2 else (low + int(r) for r in rng.integers(0, low, 30, dtype=np.int64))
            for k in ks:
                v = float(f"{k}e{x - nd + 1}")
                hits = [w for w in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)) if 0.0 < w < math.inf]
                hits = [w for w in hits if significant_digits(w) == (x, nd)]
                if hits:
                    found[x, nd] = hits[0]
                    break
    return found


def test_every_exponent_notation_layout_formats_like_python():
    # each (X, nd) is a row of the lead-and-suffix table of _layout_tables:
    # the lead cut after nd digits and the suffix of X placed after them
    found = exponent_notation_values()
    normal = [x for x in range(-307, 309) if x < -4 or x > 16]
    assert all((x, nd) in found for x in normal for nd in range(3, 18))
    assert {nd for _, nd in found} == set(range(1, 18))
    assert {x for x, _ in found} == {x for x in range(-324, 309) if x < -4 or x > 16}
    subnormals = np.random.default_rng(25).integers(1, 2**52, 2000, dtype=np.int64).view(float)
    extremes = [5e-324, np.nextafter(np.finfo(float).tiny, 0.0)]
    values = np.concatenate([np.array(list(found.values())), subnormals, extremes])
    # in blocks of positive values alone (without the gather) and mixing
    # signs and NaN (through it)
    assert_formats_like_python(values)
    assert_formats_like_python(np.concatenate([values, -values, [np.nan]]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64), st.integers(1, 8))
@example([0x7FEFFFFFFFFFFFFF, 1, 0, -(2**63), 0x3FEFFFFFFFFFFFFF, 0x3FF0000000000000], 3)
def test_format_floats_matches_python_on_any_bit_pattern_in_small_blocks(bits, block):
    # blocks with and without the gather follow one another in one output
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "FLOAT_BLOCK", block)
        assert_formats_like_python(np.array(bits, dtype=np.int64).view(float))


def test_format_floats_returns_a_fresh_c_contiguous_array():
    # from a view that no reshape flattens, so the input is copied first
    values = (np.arange(1.0, 31.0).reshape(5, 6) / 7).T[::-1]
    values.flags.writeable = False
    got = format_floats(values)
    assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable
    assert not np.shares_memory(got, values)
    assert [b.decode() for b in got.ravel().tolist()] == python_text(values)


@pytest.mark.parametrize(
    "values",
    [
        np.array([0.1, 2.5, -0.0, np.inf], ">f8"),
        np.array([0.1, 3.0, 1e-40, np.nan], np.float32),
        [1, -2, 2**53 + 1, 10**20],
        np.array([[0.1, 0.2, 5e-324], [0.3, 0.4, 1e308]], order="F"),
        np.empty((0, 3)),
        np.array([True, False]),
    ],
    ids=["big-endian", "float32", "int-list", "fortran-order", "empty", "bool"],
)
def test_format_floats_converts_any_real_input_to_float64(values):
    # each entry is formatted as the float64 it converts to, in native byte order
    converted = np.asarray(values, dtype=float)
    got = format_floats(values)
    assert got.dtype == np.dtype("S24") and got.shape == converted.shape
    assert [b.decode() for b in got.ravel().tolist()] == python_text(converted)


def exact_fraction(v: float) -> Fraction:
    """The fraction of the exact ``D = v * 10**(16 - X)``, ``X = floor(log10 v)``."""
    return Fraction(v) * Fraction(10) ** (16 - Decimal(v).adjusted()) % 1


def test_exact_ties_alone_take_the_fallback():
    assert [exact_fraction(v) for v in EXACT_TIES] == [Fraction(1, 2)] * len(EXACT_TIES)
    values = np.concatenate([boundary_values(), np.random.default_rng(22).random(5000)])
    values = values[(values > 0) & np.isfinite(values)]
    near = core._digits(values)[2]
    assert near.tolist() == [exact_fraction(v) == Fraction(1, 2) for v in values.tolist()]


def test_powers_of_ten_are_double_doubles():
    # the error bound behind _TIE_TOL assumes |H + L - 10**k * 2**s| <=
    # 2**-106 * 10**k * 2**s, H normal, L normal or 0, and Hh + Hl the
    # split of H into halves of at most 26 significant bits
    table = core._format_tables()[0]
    assert table.shape == (core._POW_LO + core._POW_HI + 1, 5)
    tiny = np.finfo(float).tiny
    for k, (high, low, hh, hl, unscale) in zip(range(-core._POW_LO, core._POW_HI + 1), table.tolist()):
        exact = Fraction(10) ** k / Fraction(unscale)
        assert abs(Fraction(high) + Fraction(low) - exact) <= exact / 2**106
        assert high >= tiny and (low == 0.0 or abs(low) >= tiny)
        assert hh + hl == high and Fraction(hh) + Fraction(hl) == Fraction(high)
        for half in (hh, hl):
            bits = abs(Fraction(half).numerator)
            assert bits == 0 or bits // (bits & -bits) < 2**26


def test_powers_of_ten_are_built_on_first_use():
    script = "import credal.core as c; assert c._tables is None; c.format_floats([0.1]); assert c._tables is not None"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def _bench_sim_config(workload: str, seed: int) -> dict:
    sim_config = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "inputs.py"))["sim_config"]
    return sim_config(workload, seed)


@pytest.mark.parametrize("workload", ["sim-medium", "sim-wide"])
def test_benchmark_runs_take_no_fallback(monkeypatch, workload):
    result = run_experiment(ExperimentConfig.from_json(_bench_sim_config(workload, 0)))
    expected = result.to_csv_text()

    def no_fallback(value, spec):
        raise AssertionError(f"{value!r} took the per-value fallback")

    monkeypatch.setattr(core, "format", no_fallback, raising=False)
    assert result.to_csv_text() == expected
