"""The CSV kernel against `%` formatting, byte for byte.

`_csvfmt.rows` must give the bytes of `'%d' % n` and `'%.17g' % x` for every
block it covers, and None for a block holding a float it does not cover, which
the simulate export then formats with `%`. Every test here turns a
RuntimeWarning into an error, so no overflow in the kernel's uint64
arithmetic goes unseen.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strange_segments import WorkloadPath, _csvfmt, cli
from strange_segments.cli import _path_csv_lines

from test_cli import per_row_csv

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CHUNK = 65_536
# Biased binary exponents of 1e-4 (1.6384 * 2^-14) and of 1e17 (1.3878 * 2^56).
EXP_1E_4, EXP_1E17 = 1023 - 14, 1023 + 56
UNCOVERED = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e17, -1e17, 1e300,
             np.nextafter(1e-4, 0.0), -9.9e-5, 1e-300, 5e-324, -5e-324]


def covered(x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    return (a >= 1e-4) & (a < 1e17)


def assert_floats_match(x) -> None:
    """The kernel's column of x, chunk by chunk, against `%.17g` on each value."""
    x = np.asarray(x, dtype=np.float64)
    for lo in range(0, len(x), CHUNK):
        part = x[lo:lo + CHUNK]
        assert _csvfmt.rows([part]) == "\n".join("%.17g" % v for v in part.tolist())


def test_random_bit_patterns_in_the_covered_exponents():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=1_050_000, dtype=np.uint64)
    exps = rng.integers(EXP_1E_4, EXP_1E17 + 1, size=bits.size).astype(np.uint64)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (exps << np.uint64(52))
    x = bits.view(np.float64)
    x = x[covered(x)]
    assert x.size >= 1_000_000
    assert_floats_match(x)


def test_random_bit_patterns():
    rng = np.random.default_rng(19)
    x = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64)
    x = x[np.isfinite(x)]
    inside = covered(x)
    assert_floats_match(x[inside])
    # a block holding any value outside goes to `%`
    for bad in x[~inside][:2000].tolist():
        assert _csvfmt.rows([np.array([1.5, bad, 2.5])]) is None


def exact_ties() -> np.ndarray:
    """Floats whose exact decimal has 18 significant digits, the last a 5.

    Such a value is ``B 5^F / 10^F`` with ``10^17 <= 5^F B < 10^18``; it is the
    float ``B / 2^F`` when B is odd and below 2^53.
    """
    rng = np.random.default_rng(7)
    ties = []
    for f in range(2, 23):
        lo, hi = -(-10**17 // 5**f), min((10**18 - 1) // 5**f, 2**53 - 1)
        b = rng.integers(lo, hi + 1, size=400) | 1
        ties.extend(int(v) / 2**f for v in b if v <= hi)
    ties = np.array(ties)
    return ties[ties >= 1e-4]


def test_exact_ties_round_half_even():
    ties = exact_ties()
    for x in ties.tolist():
        digits = Decimal(x).as_tuple().digits  # the float's exact decimal
        assert len(digits) == 18 and digits[-1] == 5, x
    assert len(ties) > 5000
    assert_floats_match(np.concatenate([ties, -ties]))
    assert _csvfmt.rows([np.array([(4 * 10**15 + 1) / 4, (4 * 10**15 + 3) / 4])]) == (
        "1000000000000000.2\n1000000000000000.8"
    )


def test_every_decade_and_its_neighbours():
    down = up = np.array([float(f"1e{k}") for k in range(-4, 18)] + [10.0**k for k in range(-4, 18)])
    near = [down]
    for _ in range(3):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        near += [down, up]
    x = np.concatenate(near)
    x = np.concatenate([x, -x])
    assert_floats_match(x[covered(x)])
    assert covered(x).sum() < x.size  # 1e17 and the neighbours of 1e-4 below it fall back
    for bad in x[~covered(x)].tolist():
        assert _csvfmt.rows([np.array([bad])]) is None


@pytest.mark.parametrize("bad", UNCOVERED)
def test_uncovered_float_sends_the_block_to_percent(bad):
    t = np.arange(1, 4)
    assert _csvfmt.rows([t, t * 7, np.array([0.5, bad, 3.0])]) is None


def test_int_cells():
    rng = np.random.default_rng(3)
    edges = [0, 1, -1, 9, -9, 10, -10, 9999, 10_000, -10_000, 2**63 - 1, -2**63, 10**18, -10**18]
    edges += [s * (10**k + d) for k in range(19) for d in (-1, 0) for s in (1, -1)]
    v = np.concatenate([np.array(edges, dtype=np.int64),
                        rng.integers(-2**63, 2**63 - 1, size=5000, dtype=np.int64),
                        rng.integers(-10**6, 10**6, size=5000, dtype=np.int64)])
    assert _csvfmt.rows([v]) == "\n".join("%d" % n for n in v.tolist())
    small = np.arange(1, 9, dtype=np.int64)  # one digit: a single group with leading zeros
    assert _csvfmt.rows([small]) == "\n".join(str(n) for n in range(1, 9))


def test_rows_of_mixed_columns():
    rng = np.random.default_rng(11)
    n = 20_000
    t = np.arange(5, 5 + n)
    big = rng.integers(-2**62, 2**62, size=n)
    s, d = np.where(rng.random((2, n)) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-4, 17, (2, n))
    assert covered(s).all() and covered(d).all()
    want = "\n".join("%d,%d,%.17g,%.17g" % row for row in zip(t.tolist(), big.tolist(),
                                                              s.tolist(), d.tolist()))
    assert _csvfmt.rows([t, big, s, d]) == want


def test_blocks_mixing_kernel_and_fallback(monkeypatch):
    # blocks of 4 rows; the second and fourth hold a value the kernel does not cover
    s = np.array([0.0, 1.5, -2.25, 3e-4, 7.0, 8.0, 0.0, 9.5, 1e5, 2.0, 3.0, 4.0, 5.0, 6.0,
                  -1e17, 0.125, 0.375])
    path = WorkloadPath(S=s, N=np.arange(len(s), dtype=np.int64) ** 3,
                        D=np.concatenate([[0.0], np.diff(s)]))
    rows, results = _csvfmt.rows, []

    def spy(columns):
        text = rows(columns)
        results.append(text is not None)
        return text

    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 4)
    monkeypatch.setattr(_csvfmt, "rows", spy)
    for record_steps in (False, True):
        text = "\n".join(_path_csv_lines(path, record_steps)) + "\n"
        assert text == per_row_csv(path, record_steps)
    assert results == [True, False, True, False, True, False, True, False]


# Values the kernel covers, mixed with any float at all.
FLOATS = st.one_of(
    st.floats(min_value=1e-4, max_value=1e17, exclude_max=True),
    st.floats(min_value=-1e17, max_value=-1e-4, exclude_min=True),
    st.floats(),
)


@given(
    s=st.lists(FLOATS, min_size=1, max_size=24),
    steps=st.lists(FLOATS, min_size=24, max_size=24),
    n=st.lists(st.integers(-2**63, 2**63 - 1), min_size=24, max_size=24),
    block=st.integers(min_value=1, max_value=8),
    record_steps=st.booleans(),
)
@settings(deadline=None)  # the example budget comes from the hypothesis profile
def test_export_equals_percent_formatting(s, steps, n, block, record_steps):
    size = len(s)
    path = WorkloadPath(S=np.array(s), N=np.array(n[:size], dtype=np.int64),
                        D=np.array(steps[:size]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CSV_BLOCK_ROWS", block)
        text = "\n".join(_path_csv_lines(path, record_steps)) + "\n"
    assert text == per_row_csv(path, record_steps)
