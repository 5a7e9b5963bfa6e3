"""The ``law`` command's text and JSON, written a block at a time.

``FiniteLaw.text_blocks`` must give, byte for byte, the one-line-at-a-time
writer that ``tests/oracles.py`` keeps as ``reference_law_text``: on one to six
symbols, labels of several characters, non-ASCII, ``%``, braces and a lone
surrogate; lengths inside and past the suffix table; laws of more than one
block whose runs of equal prefixes cross a block boundary; all-live laws and
sparse ones. The
``--json`` writer must give one ``json.dumps`` of the whole report
(``reference_law_json``), labels that need escaping included. A reader that
stops reading ``law`` output early is not an error.

``bytetext.g17`` must write every double as ``'%.17g' %`` does: random bit
patterns, subnormals, the neighbours of every power of ten (the decades' edges,
E = -4/-5 among them), three-digit exponents, exact decimal ties and values
outside (0, 1). Its fast path must carry all but a few of a real law's
probabilities, and every exact tie must go to ``%``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from chainmix.bytetext import g17, text
from chainmix.cli import _law_json_blocks
from chainmix.model_core import BLOCK, Alphabet, FiniteLaw, model_law
from chainmix.model_io import load_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# a lone surrogate too: a label from a JSON file may hold one, and it must come out as it went in
LABELS = st.text(alphabet="ab%{}s.é€\udc80", min_size=1,
                 max_size=3).filter(lambda s: s != "@del")


def random_law(r, alphabet, length, live):
    """Each string live with probability ``live`` (at least one), values over many
    decades, some of them round (``0.5``, ``1``) and some subnormal."""
    size = alphabet.size ** length
    ranks = np.flatnonzero(r.random(size) < live)
    if ranks.size == 0:
        ranks = r.integers(0, size, size=1)
    probs = r.random(ranks.size) * 10.0 ** r.integers(-320, 1, size=ranks.size)
    probs[r.random(ranks.size) < 0.1] = r.choice([0.5, 1.0, 0.1, 5e-324])
    return FiniteLaw.from_ranks(alphabet, length, ranks, probs)


def assert_text_is_reference(law):
    blocks = list(law.text_blocks())
    n = law.ranks.size
    assert [b.count("\n") for b in blocks] == [min(BLOCK, n - i) for i in range(0, n, BLOCK)]
    assert "".join(blocks) == oracles.reference_law_text(law)


@given(st.lists(LABELS, min_size=1, max_size=6, unique=True), st.integers(1, 14),
       st.sampled_from([0.02, 0.3, 0.7, 1.0]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_text_blocks_equal_the_line_writer(labels, length, live, seed):
    k = len(labels)
    while length > 1 and k ** length > 20_000:
        length -= 1
    law = random_law(np.random.default_rng(seed), Alphabet.of(labels), length, live)
    assert_text_is_reference(law)


@pytest.mark.parametrize("labels, length, live, suffix, crossed", [
    (["a", "b"], 13, 1.0, 2 ** 12, 0),             # two full blocks, one prefix each
    (["x", "%s", "{}"], 9, 0.5, 3 ** 7, 2),        # 9,771 lines, prefix runs of ~1,100
    (["é", "€€", "%d", "{0}"], 7, 0.6, 4 ** 6, 2),  # one-symbol prefixes
    (["u", "v", "w", "x", "y", "z"], 6, 0.4, 6 ** 4, 4),
    (["p", "q", "r", "s", "t"], 5, 1.0, 5 ** 5, 0),  # L == m: no prefix at all
    (["only"], 9, 1.0, 1, 0),                      # K = 1: one string
])
def test_text_blocks_across_block_boundaries(labels, length, live, suffix, crossed):
    # ``suffix`` is K**m, the suffix table's size; ``crossed`` counts the block
    # boundaries that fall inside a run of equal prefixes
    law = random_law(np.random.default_rng(len(labels) * 100 + length), Alphabet.of(labels),
                     length, live)
    prefixes = law.ranks // suffix
    assert sum(prefixes[i - 1] == prefixes[i]
               for i in range(BLOCK, law.ranks.size, BLOCK)) == crossed
    assert_text_is_reference(law)


def test_text_blocks_past_the_suffix_table():
    # 4,097 symbols: not even one symbol's labels fit a block, so m = 0 and every
    # string is its own prefix
    alphabet = Alphabet.of([f"s{i}%" for i in range(BLOCK + 1)])
    r = np.random.default_rng(4097)
    ranks = np.unique(r.integers(0, (BLOCK + 1) ** 2, size=5000))
    assert_text_is_reference(FiniteLaw.from_ranks(alphabet, 2, ranks, r.random(ranks.size)))


def test_text_blocks_beyond_int64_ranks():
    # 41 ternary symbols: ranks are Python ints, prefixes of 34 symbols
    r = np.random.default_rng(41)
    strings = {tuple(r.choice(["a", "b%", "c"], size=41)): p for p in r.random(300)}
    law = FiniteLaw.from_probs(Alphabet.of(["a", "b%", "c"]), 41, strings)
    assert law.ranks.dtype == object
    assert_text_is_reference(law)


def g17_is_percent(x):
    """``g17`` of ``x`` against ``'%.17g' %``: the same bytes and the same length per value."""
    out, fallback = g17(x)
    want = ["%.17g" % v for v in np.asarray(x, dtype=float).tolist()]
    assert text(out) == "".join(want)
    assert (out != 0xFF).sum(axis=1).tolist() == [len(w) for w in want]
    return fallback


def dyadic_ties():
    """Every ``m * 2**-(k+1)``, ``m`` odd and k = 17..22, with 18 significant digits, the
    last a 5: exactly halfway between two 17-digit decimals."""
    return np.concatenate([np.arange(-(-10 ** 17 // 5 ** (k + 1)) | 1, 10 ** 18 // 5 ** (k + 1),
                                     2) * 2.0 ** -(k + 1) for k in range(17, 23)])


POWERS = 10.0 ** -np.arange(1, 324)
EDGES = np.concatenate([np.nextafter(POWERS, 0.0), POWERS, np.nextafter(POWERS, 1.0),
                        np.nextafter(np.nextafter(POWERS, 0.0), 0.0), np.nextafter(
                            np.nextafter(POWERS, 1.0), 1.0)])


def test_g17_is_percent_on_many_doubles():
    r = np.random.default_rng(1717)
    bits = r.integers(1, 0x3FF0000000000000, size=400_000, dtype=np.int64).view(float)
    subnormal = r.integers(1, 2 ** 52, size=50_000, dtype=np.int64).view(float)
    odd = [1.0, 0.0, -0.0, -0.25, 2.0, 1e300, np.inf, -np.inf, np.nan, 5e-324, 1 - 2 ** -53]
    fallback = g17_is_percent(np.concatenate([bits, r.random(200_000) ** 9, subnormal,
                                              EDGES, odd]))
    assert fallback[-len(odd):].sum() == 9       # all but the two values in (0, 1)


def test_g17_sends_every_exact_tie_to_percent():
    ties = dyadic_ties()
    assert ties.size == 147_444 and "%.18g" % ties[0] == "0.100002288818359375"
    assert g17_is_percent(ties).all()


@pytest.mark.parametrize("guess", [-np.inf, np.inf])
def test_g17_corrects_a_wrong_decade(guess, monkeypatch):
    # a guess of the lower (upper) decade of every binade: each value of the other
    # decade must be moved there by the check on its scaled value
    r = np.random.default_rng(17)
    monkeypatch.setattr(np, "log10", lambda v: np.full(np.shape(v), guess))
    g17_is_percent(np.concatenate([EDGES, r.integers(1, 0x3FF0000000000000, size=50_000,
                                                     dtype=np.int64).view(float),
                                   r.choice(dyadic_ties(), 1000)]))


def test_g17_fast_path_carries_a_law():
    # the laws benchmark's dense law: a broken fast path that sent every value to
    # ``%`` would still print the right bytes
    probs = model_law(load_model(MODELS / "noisy_hmm.json"), 16).probs
    assert g17_is_percent(probs).mean() <= 0.01


@given(st.lists(st.one_of(
    st.integers(1, 0x3FF0000000000000).map(lambda b: float(np.int64(b).view(float))),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 ** -1022),
    st.sampled_from(EDGES.tolist()),
    st.sampled_from(dyadic_ties().tolist()),
    st.floats(1e-5, 1e-4).flatmap(lambda v: st.sampled_from([v, np.nextafter(v, 0.0)])),
    st.floats(0.0, 1e-100),
    st.just(1.0)), min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_g17_is_percent(values):
    g17_is_percent(values)


JSON_LABELS = st.text(alphabet='ab"\\/\n\t\x01%é€\U0001f600', min_size=1,
                      max_size=3).filter(lambda s: s != "@del")


@given(st.lists(JSON_LABELS, min_size=1, max_size=5, unique=True), st.integers(1, 13),
       st.sampled_from([0.02, 0.3, 1.0]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_law_json_blocks_equal_json_dumps(labels, length, live, seed):
    k = len(labels)
    while length > 1 and k ** length > 20_000:
        length -= 1
    law = random_law(np.random.default_rng(seed), Alphabet.of(labels), length, live)
    blocks = list(_law_json_blocks(law))
    assert len(blocks) == 2 + -(-law.ranks.size // BLOCK)
    assert "".join(blocks) == oracles.reference_law_json(law)


def test_law_json_blocks_beyond_int64_ranks():
    r = np.random.default_rng(41)
    strings = {tuple(r.choice(["a", 'b"', "c"], size=41)): p for p in r.random(300)}
    law = FiniteLaw.from_probs(Alphabet.of(["a", 'b"', "c"]), 41, strings)
    assert "".join(_law_json_blocks(law)) == oracles.reference_law_json(law)


@pytest.mark.parametrize("horizon, lines_read, flags", [
    # 131,072 lines (4.6 MB) against a 64 kB pipe: the writer meets the closed pipe
    (16, 1, []),
    (16, 1, ["-u"]),
    # 16 lines: buffered, they reach the closed pipe only at the last flush
    (3, 0, []),
    (3, 0, ["-u"]),
])
def test_law_into_a_closed_pipe_exits_0_silently(horizon, lines_read, flags):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.Popen([sys.executable, *flags, "-m", "chainmix.cli", "law",
                             str(MODELS / "noisy_hmm.json"), "--horizon", str(horizon)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    read = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert all(line.startswith(b"a a a ") for line in read)
