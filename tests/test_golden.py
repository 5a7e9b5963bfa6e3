"""Seeded outputs pinned by SHA-256 digest.

The digests were computed with the one-trajectory-at-a-time scalar samplers
that ``tests/oracles.py`` keeps as the reference draw order, so any change to
draw order, inverse-CDF choices or Monte Carlo counting shows up here. Sizes
cross the lockstep samplers' block and chunk boundaries. The ``check_lemmas_mc``
digests hash ``repr`` of the results: labels, lhs, rhs, gap, allowed (including
its numpy scalar type), skipped and residual.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chainmix import fixtures
from chainmix.cli import main
from chainmix.sim import RandomSource
from chainmix.stopping_verifier import HittingTimeSpec, check_lemmas_mc

MODELS = Path(__file__).resolve().parent.parent / "models"
IID = {"type": "iid_mixture", "alphabet": ["a", "b", "c"], "weights": [0.3, 0.7],
       "components": [[0.2, 0.5, 0.3], [0.6, 0.0, 0.4]]}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("model, length, count, seed, hidden, expected", [
    ("separated_mixture.json", 2000, 40, 5, False,
     "0d8f17a43e17cd74a449c1aedeab0370f008801baec46cc1a054ee8491941004"),
    ("stay_swap_mixture.json", 300, 12, 6, False,
     "31ad02c968db007cef2c80fccb93ea9fac929363b3f14f65f5a53b68b59f507f"),
    ("two_cell_partitioned.json", 2000, 40, 7, False,
     "e27a0b4ba2ec0e13c636eb837aba76ce6d37b30e8fd3859309a64c7dad1656a6"),
    ("noisy_hmm.json", 2000, 40, 8, True,
     "687af171bee8564ceba9cc3b81ad59eaf52cd9622cefbeda08362609920ab137"),
    ("stay_swap_hmm.json", 300, 12, 9, True,
     "c4839e87616a8014c912b6e272d90f77997794be1210c5fb566b31707b93f41f"),
    ("iid", 2000, 40, 10, False,
     "c0652156f6327656644d258a417b810d185ac7e26c2fce611ac444e8bddc0782"),
    ("separated_mixture.json", 3, 1100, 11, False,
     "9fdfdeedfd80e20b54a11e427fefaae0753ee181a7d79f1c292ec0cc3aad15e0"),
])
def test_simulate_stdout_digest(model, length, count, seed, hidden, expected,
                                tmp_path, capsys):
    path = MODELS / model
    if model == "iid":
        path = tmp_path / "iid.json"
        path.write_text(json.dumps(IID))
    argv = ["simulate", str(path), "--length", str(length), "--count", str(count),
            "--seed", str(seed)] + (["--trace-hidden"] if hidden else [])
    assert main(argv) == 0
    assert digest(capsys.readouterr().out) == expected


TWO_SYMBOLS = HittingTimeSpec(frozenset({("*", "a"), ("*", "b")}), occurrences=2)


@pytest.mark.parametrize("model, spec, seed, expected", [
    ("iid_rows_three_state", TWO_SYMBOLS, 3,
     "18a72e80d57fa30097d80dabfa8ec43f24ee7b94cb60655d94c2d29980883a35"),
    ("iid_rows_three_state", TWO_SYMBOLS, 4,
     "58f76289d5da38eb5cebca0a314b6b06726d3b22309a265b6e6588f81827e2e8"),
    ("direct_sum_iid_blocks", HittingTimeSpec.for_symbol("a", 2), 5,
     "07e6d786c80e27c2470d6b349683c1ab1f7a9fb020e2e295bde65bab35cd29d1"),
    ("direct_sum_iid_blocks", HittingTimeSpec.for_symbol("a", 3), 6,
     "fd5f48a412c3b647f3ec45e174c5a2ead03ea609f6aa42a11a4cb6ed9910e5b5"),
])
def test_check_lemmas_mc_repr_digest(model, spec, seed, expected):
    results = check_lemmas_mc(getattr(fixtures, model)(), spec, 20_000, RandomSource(seed))
    assert digest(repr(results)) == expected
