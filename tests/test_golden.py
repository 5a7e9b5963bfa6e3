"""Seeded outputs pinned by SHA-256 digest.

The digests were computed with the one-trajectory-at-a-time scalar samplers
that ``tests/oracles.py`` keeps as the reference draw order, so any change to
draw order, inverse-CDF choices or Monte Carlo counting shows up here. Sizes
cross the batch samplers' block and chunk boundaries. The ``check_lemmas_mc``
digests hash ``repr`` of the results: labels, lhs, rhs, gap, allowed, skipped
and residual. They were pinned again when the MC checks began to count paths
over the exact mode's instance tables with Bonferroni bounds: the read-out
instances (symbol sets, exact labels), every ``allowed`` and the skip-label
suffixes moved, while every lhs and rhs of the other identities equals the
hand-written families of ``reference_lemmas_mc`` bit for bit
(``tests/test_lemma_engine.py``).

The ``law``, ``compare`` and ``convert --check`` digests were computed with the
per-entry rank/digit conversions that ``tests/oracles.py`` keeps as the
reference, so a change to line order, a moved probability or a printed digit
shows up here. ``tv`` is the correctly rounded sum of the entrywise gaps, so
no storage form or visiting order enters it; six ``compare`` digests whose
``tv`` the two-form tables had summed in dict (set) order were pinned again
when laws became sorted rank arrays, and only their ``tv`` moved. They cover
tables with every string live and with few live, lifted and marginalized
laws, and unequal pairs that print a ``worst_string``. The ``sparse6``
horizon-8 and stay/swap horizon-20 digests were computed with the full-table
law bodies that ``tests/oracles.py`` keeps as ``reference_*_law``: tables of
1.7M and 2.1M strings, of which 124,511 and 2 are live. The ``noisy_hmm``
horizon-16 digest (131,072 lines, 32 blocks of the block writer) was computed
with the one-line-at-a-time writer kept as ``reference_law_text``. The
``seeded_sparse6`` and ``relabelled_hmm`` digests were computed with the
``text_blocks`` that formatted every probability with Python's ``%``: the
benchmark's sparse law shape, and labels of one to three characters with ``%``
and non-ASCII, in text and JSON.

The ``recover``, ``successors`` and ``test-exchangeability`` digests were
computed with the per-symbol successors and histogram loops and the pairwise
merge that ``tests/oracles.py`` keeps as ``reference_extract`` and
``reference_lln_recover``, so a moved float in an estimate, centroid or
stderr, a different cluster or cluster order, or a changed successors row
shows up here. At each ``two_cell_partitioned`` tolerance some cluster holds
two members farther apart than the tolerance, joined through single-linkage
chains.
The three ``test-exchangeability`` digests were pinned again when the
permutation test began to stop once its verdict is settled: only p-values above
the level moved, and with ``reference_row_exchangeability`` (the fixed-count
test) in its place the commands print the old digests, which
``FIXED_COUNT_EXCHANGEABILITY_DIGESTS`` keeps.

The ``verify-lemmas`` digests and the ``repr`` digests of the exact
strong-splitting and hitting-time checks were computed with the per-instance
transfer-matrix propagations that ``tests/oracles.py`` keeps as
``reference_occurrence_mass`` and ``reference_strong_splitting``, so a moved
last bit in any lhs, rhs, gap or allowed value, a changed label, or a changed
order of checked or skipped instances shows up here. The noisy HMM fails and
prints FAIL lines.

The 36 digests of exact HMM laws (the seven ``noisy_hmm`` ones), ``verify-lemmas``
and the exact strong-splitting and hitting-time ``repr`` were pinned again when
every float contraction on an exact path became ``model_core.contract``, one
left-to-right sum per output entry: before, BLAS matrix products, stacked gemv,
``np.vecdot`` and ``matrix_power`` chose the order, and the digits depended on the
OpenBLAS kernel (36 of these tests failed under ``OPENBLAS_CORETYPE=Sandybridge``).
Moved lhs, rhs, allowed and law entries lie within 14 ulp of the old floats, moved
gaps within 3.4e-16; the per-instance references now sum through
``reference_contract`` and still match bit for bit, and ``tests/test_blas_kernels.py``
requires the same stdout under three kernels.

The ``analyze`` digests were pinned when stationary vectors came from GTH
elimination, whose every entry ``reference_stationary`` (an exact rational
solve) bounds in relative terms (``tests/test_chain_analysis.py``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from chainmix import fixtures, recovery
from chainmix.cli import main
from chainmix.model_core import validate_model
from chainmix.model_io import model_from_dict, save_model
from chainmix.sim import RandomSource
from chainmix.stopping_verifier import (
    HittingTimeSpec,
    check_hitting_time_lemmas,
    check_lemmas_mc,
    check_strong_splitting,
)

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
    # single trajectories across several chunks: pinned with the scalar bisect_right loop
    ("separated_mixture.json", 50_000, 1, 21, False,
     "52d3c2edefd17ba395c9b0abf16b4fc0a32b9353bb4f1a8c22742d2555608c19"),
    ("noisy_hmm.json", 50_000, 1, 21, True,
     "84d38b11c7214643ead0d8ee484c50ee42114d90dae7bf909a3ac34695d2d3bc"),
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
     "5a01f47da19e08bf9b9ee59645729ee366008295aad23b9d4ef396732bbb258b"),
    ("iid_rows_three_state", TWO_SYMBOLS, 4,
     "562c3502f74479616b2f81bbf4ec8aac98d712e1c9ff215d11a0abeac95797e1"),
    ("direct_sum_iid_blocks", HittingTimeSpec.for_symbol("a", 2), 5,
     "d998e6daf0a5dfe3a7ee3083c85f428535fdad93b86556db28bb22ce422d22a8"),
    ("direct_sum_iid_blocks", HittingTimeSpec.for_symbol("a", 3), 6,
     "8eb5cfedbff7961204d33c3f3294859fa8481272afad6436bc849fdc28ebab59"),
])
def test_check_lemmas_mc_repr_digest(model, spec, seed, expected):
    results = check_lemmas_mc(getattr(fixtures, model)(), spec, 20_000, RandomSource(seed))
    assert digest(repr(results)) == expected


def _rows(weights, offsets):
    """6x6 stochastic matrix whose row y puts ``weights`` on ``y + offsets`` (mod 6)."""
    rows = [[0.0] * 6 for _ in range(6)]
    for y in range(6):
        for w, o in zip(weights, offsets):
            rows[y][(y + o) % 6] = w
    return rows


def _sparse6(weights):
    """Markov mixture over 6 symbols with 4 positive entries per row: its laws
    past horizon 2 have few live strings, so they take the sparse form."""
    return {"type": "markov_mixture", "alphabet": list("abcdef"), "y0": "a",
            "weights": weights,
            "components": [_rows([0.4, 0.3, 0.2, 0.1], [0, 1, 2, 3]),
                           _rows([0.1, 0.2, 0.3, 0.4], [0, 2, 3, 5])]}


def _seeded_sparse6(seed):
    """Markov mixture over 6 symbols, 2 components with 4 Dirichlet entries per row at
    random places, redrawn until valid: the shape of the laws benchmark's sparse law."""
    rng = np.random.default_rng(seed)
    while True:
        components = []
        for _ in range(2):
            rows = np.zeros((6, 6))
            for y in range(6):
                rows[y, rng.choice(6, 4, replace=False)] = rng.dirichlet(np.ones(4))
            components.append(rows.tolist())
        raw = {"type": "markov_mixture", "alphabet": list("abcdef"), "y0": "a",
               "weights": rng.dirichlet(np.ones(2)).tolist(), "components": components}
        if not validate_model(model_from_dict(raw)):
            return raw


# noisy_hmm with labels of one to three characters, among them ``%`` and non-ASCII
RELABELLED = {**json.loads((MODELS / "noisy_hmm.json").read_text()), "alphabet": ["%", "é%s"]}
EXTRA_MODELS = {"iid.json": IID, "sparse6.json": _sparse6([0.3, 0.7]),
                "sparse6b.json": _sparse6([0.35, 0.65]),
                "seeded_sparse6.json": _seeded_sparse6(2707),
                "relabelled_hmm.json": RELABELLED}


@pytest.fixture()
def model_dir(tmp_path):
    for name, raw in EXTRA_MODELS.items():
        (tmp_path / name).write_text(json.dumps(raw))
    for path in MODELS.glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    return tmp_path


def _run(model_dir, capsys, argv):
    """Exit status, stdout and stderr of ``main`` with model names resolved in ``model_dir``."""
    argv = [str(model_dir / a) if a.endswith(".json") else a for a in argv]
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


LAW_DIGESTS = {
    # (model, horizon, --json): SHA-256 of stdout
    ("iid.json", 1, False):
        "24756753d5682bdf8806b19cf70a02c72a761b5fe857f2e2647c65a702ab77a5",
    ("iid.json", 1, True):
        "9978a0d492e5119f33849f39996c13a83d3761d9c0c06e24afbeaa08a7d0bb5a",
    ("iid.json", 3, False):
        "49b3a6867c83ae042b2c7fb2415a15e307440820c7da00ef13efa6e2f9d60e00",
    ("iid.json", 3, True):
        "9bba27b89e48126f475472bd975ecc0e63654e3931bdd49992a311129f701869",
    ("iid.json", 9, False):
        "1ef99ff2812a6df0aa8a63be81d5bb4b3e630a1747696a459ff59e191cf2606c",
    ("iid.json", 9, True):
        "4eebff2771de743e92d5d9a04dffff4d2d9b7bbb2ecb80f50e17b7c0262361e2",
    ("noisy_hmm.json", 1, False):
        "7d199ad11d115563900e92f9988d796ee60f3252c86bf7c119f33298a62c66a0",
    ("noisy_hmm.json", 1, True):
        "ca6a4ec1e3d5997b9ccf44bd92c741b49d0d83bbc21762253eb99f908caf207d",
    ("noisy_hmm.json", 3, False):
        "2c63f96a500a7d9d2a0741f83fea293faf4f4ba7da14f337d01fbb0f14a301ed",
    ("noisy_hmm.json", 3, True):
        "7921c272d57c65eab80fcc9e75526a5c6e330c135b5582733d92ea27a4dca6ca",
    ("noisy_hmm.json", 9, False):
        "681e900761e8920a39f9d752fcacc367655e0d2ef0fdc2543ff22c1298fcefa6",
    ("noisy_hmm.json", 9, True):
        "77ff05953ca87405cf67a303cc889c331079455b1fe79f7aec8511f368faea07",
    ("separated_mixture.json", 1, False):
        "5c39b45c52e9aac0841346ae555cf37d24bf661261799898c681920ddfc6999d",
    ("separated_mixture.json", 1, True):
        "bf56f56e6306c482cff3935d68251b159422aebaf30087dd055f6fc05d7d8952",
    ("separated_mixture.json", 3, False):
        "09bdcbff231bd23a03a55f9825f78c4073b50e3d90aa15379f9a721c1f622ce7",
    ("separated_mixture.json", 3, True):
        "177924c052384e093d8fb78de67c26edf391260db83f1b093566e6fbcaa1d8a7",
    ("separated_mixture.json", 9, False):
        "e4ae543921a5731c21c4530af702f501ea8c2b1d788d11ee042df3f230c4a923",
    ("separated_mixture.json", 9, True):
        "e529fe421c750074ff258531473b6983931cce5366329dfc3184850adbe9f8f1",
    ("stay_swap_hmm.json", 1, False):
        "ae7646d5ed8796069d2364c4c4a7aa9fcb44a79a331245b09ba8d2fe61ed3ad6",
    ("stay_swap_hmm.json", 1, True):
        "09b71cbab447f43a3372d6cc05254ca9527d2a9f6ac47222d7331a21553d2768",
    ("stay_swap_hmm.json", 3, False):
        "5cc587a5dd93a73c89c2537673272e8f4396123030f0e51a5ee5e722334c31d2",
    ("stay_swap_hmm.json", 3, True):
        "5aa3c8d743c0a6532f9c2dac886b5f276d4546391830b59ef67ac58a9f9d8c79",
    ("stay_swap_hmm.json", 9, False):
        "ca79d8c4d8c956033e9ffc5bc1dacbf9105069f8e3c2da400327872d48e20707",
    ("stay_swap_hmm.json", 9, True):
        "a98ca55b51d95ef0bd0a0d3df6e437c50a7dfaac38569f780722a325c460d0f3",
    ("stay_swap_mixture.json", 1, False):
        "6da5d52a50c27a2cb9482913af51d31014e9dad175e00a25fb2e7a3b6032961c",
    ("stay_swap_mixture.json", 1, True):
        "b9fb4e8c46bbb6121a5e89fb4652811aa0beea8053944e240dfe488ba80c2798",
    ("stay_swap_mixture.json", 3, False):
        "7c655785bbb862ef74c1eae62cb30f65e386e5e6f92ae393e04cb55e65819ab6",
    ("stay_swap_mixture.json", 3, True):
        "0eaaec823c2e85f425013876e63dd42604fc5fb2b253ad5d4d774951cb20f9ac",
    ("stay_swap_mixture.json", 9, False):
        "0c6b29c8cf16d819ce4d3ddb8c0744e9c370ddd751cf90e98382be12fc547925",
    ("stay_swap_mixture.json", 9, True):
        "3491eb5d0a8a44e222ca326c4ed2e3023c4990eabdf54b0ba2fe9e9576dc7030",
    ("two_cell_partitioned.json", 1, False):
        "dfe908656ce342a85df227b80da8f1b9061819db36136332474607865b22cbd7",
    ("two_cell_partitioned.json", 1, True):
        "c0b4af20917f1fa9e569485a99ced817d2c62629b49f3f7ee15785394d08c3d9",
    ("two_cell_partitioned.json", 3, False):
        "7eb9b924d8893097d6d4a0579ded014f0e49483f86f16bc8c9b1a5bb7605762a",
    ("two_cell_partitioned.json", 3, True):
        "e3f3aed90ab4e28e5688cb8c53ae57d7bb0368d90037fe08de9ebe95a10c964a",
    ("two_cell_partitioned.json", 9, False):
        "9dec859d50e50b13309828d4838c0178d89be383f7de2d26c83a155e95ccfdc0",
    ("two_cell_partitioned.json", 9, True):
        "34653f7c3ff830dd26f123c2b50081942bbb5f5626e31f4727f7184815c372cc",
    ("sparse6.json", 2, False):
        "38a96516298a49eaf43535f1045dc9241ef3f1dc8afa5f556531d4c76a824d65",
    ("sparse6.json", 2, True):
        "0b0fbce8c551b20d00af3cf60e9ccfe13fe4d2f233b4a0284d2a9bbc99ced109",
    ("sparse6.json", 6, False):
        "7b2eab602786d002b5504ad96fde2f6a82a76220dc145398f7c7f0d8ac1cfade",
    ("sparse6.json", 6, True):
        "4541a14b70a0d54b3e1dd4e8b87cd7e7987e8c91f67b91e020e5bd5ac4551cd9",
    ("sparse6.json", 8, False):
        "f987eb55e487c90a893eeb6d4937dc2a9714692198677137312138462fb5f6b9",
    ("sparse6.json", 8, True):
        "eb77cd2cc86c21861368feae3da03983550fe3270992661733e8d8e6e566bc3c",
    ("stay_swap_hmm.json", 20, False):
        "bd94641e77620839255b79ac4f5044079102c4b3ccf7e1aba7f2737c002f4f92",
    ("stay_swap_hmm.json", 20, True):
        "4d55c5d24c7aafa3be11717a976fd76e653072d36b403f807c259983b5f228e3",
    # the laws benchmark's dense law: 131,072 lines, 32 blocks
    ("noisy_hmm.json", 16, False):
        "ebeafec204d74aea5cede25234df6b9e8fc44a26d69da8db14b0ec90d7afa2fe",
    # the laws benchmark's sparse shape (suffix table of 6**4 strings): 127,932 lines
    ("seeded_sparse6.json", 8, False):
        "7d2cc9b4b8aa4c0b3cd6be4b33549be93081a74e14552973c5ef14d695b2ddfe",
    ("seeded_sparse6.json", 8, True):
        "a16cd6449f2cac07aa1cf32013a18435daf33f04b02194f638a59576078e9c95",
    # labels of unequal widths, ``%`` and non-ASCII: 8,192 lines
    ("relabelled_hmm.json", 12, False):
        "45707f73f25a3a9d9f4d407e86ab5aacce4518363d615933c1e2be0570d6989e",
    ("relabelled_hmm.json", 12, True):
        "0134b84ebb9aaf851ec1548a524f61cb7559f23c572875f36cbb1b87aa1b4d51",
}


@pytest.mark.parametrize("model, horizon, as_json", sorted(LAW_DIGESTS))
def test_law_stdout_digest(model, horizon, as_json, model_dir, capsys):
    argv = ["law", model, "--horizon", str(horizon)] + (["--json"] if as_json else [])
    status, out, _ = _run(model_dir, capsys, argv)
    assert status == 0
    assert digest(out) == LAW_DIGESTS[model, horizon, as_json]


COMPARE_DIGESTS = {
    # argv after "compare": (exit status, SHA-256 of stdout)
    ("stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "20"):
        (0, "83abbf083dae4fec305b2a65809bcd483062462e6372274a6e894f96fdac23f6"),
    ("stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "20", "--json"):
        (0, "360a82ba1954464bbf95c8ae7d940a4bfc6702d01e34c3d300c4aa8ec23cfe08"),
    ("stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "9"):
        (0, "83abbf083dae4fec305b2a65809bcd483062462e6372274a6e894f96fdac23f6"),
    ("stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "9", "--json"):
        (0, "360a82ba1954464bbf95c8ae7d940a4bfc6702d01e34c3d300c4aa8ec23cfe08"),
    ("stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "9", "--drop-first"):
        (0, "83abbf083dae4fec305b2a65809bcd483062462e6372274a6e894f96fdac23f6"),
    ("stay_swap_mixture.json", "stay_swap_hmm.json", "--horizon", "9", "--drop-first", "--json"):
        (0, "360a82ba1954464bbf95c8ae7d940a4bfc6702d01e34c3d300c4aa8ec23cfe08"),
    ("separated_mixture.json", "noisy_hmm.json", "--horizon", "7"):
        (1, "f490049fb5812d5ad09b0765aff3c807e35f19225c2b641ebb556a753aff22fb"),
    ("separated_mixture.json", "noisy_hmm.json", "--horizon", "7", "--json"):
        (1, "633705cd1fcf96c1aa16b1332747bc4d1f13633ca77bc1d0aade5a763c0a4125"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7"):
        (1, "1d1326862b0c829331c2677e27604fc7809e018a5d50b4578e5ba51fe3f54de0"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7", "--json"):
        (1, "51921c48c8a99b90be59eb5bddd154c848bf833dc54bf43e7f3b05b062bcabda"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7", "--drop-first"):
        (1, "d7920ad724066f893f1f1a23c02192ffe1125b488c6de760cc9dd9942d1fd16f"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7", "--drop-first", "--json"):
        (1, "122a849748cb02171bee94f75b9ff6005f97fe570e57dbcf1f233348561c6cd9"),
    ("separated_mixture.json", "noisy_hmm.json", "--horizon", "7", "--drop-first"):
        (1, "a8b10b41863878aa428a955474b5a6fba0f3c8303602d913f5dba786d3cc865f"),
    ("separated_mixture.json", "noisy_hmm.json", "--horizon", "7", "--drop-first", "--json"):
        (1, "55c32d799ac83eb5237b2acfeb7729c5744d59677b8a0b04144c4034d96caa79"),
    ("sparse6.json", "sparse6b.json", "--horizon", "6"):
        (1, "86b9e4c96ea1c84d697ec83efdef5c3c03b57efb9f2aa30eaf8aa0f320693dae"),
    ("sparse6.json", "sparse6b.json", "--horizon", "6", "--json"):
        (1, "0bd75ce4f3de94a68aa3718ccfb3093f6d8554df8d17a3430d1735e117f68395"),
    ("sparse6.json", "sparse6.json", "--horizon", "6", "--tol", "0"):
        (0, "83abbf083dae4fec305b2a65809bcd483062462e6372274a6e894f96fdac23f6"),
    ("sparse6.json", "sparse6.json", "--horizon", "6", "--tol", "0", "--json"):
        (0, "1098735a1d53ce3637aacac1b8c1ed934225a889daa8ca5e2a5f486d96af7f42"),
    ("two_cell_partitioned.json", "two_cell_partitioned.json", "--horizon", "5"):
        (0, "83abbf083dae4fec305b2a65809bcd483062462e6372274a6e894f96fdac23f6"),
    ("two_cell_partitioned.json", "two_cell_partitioned.json", "--horizon", "5", "--json"):
        (0, "360a82ba1954464bbf95c8ae7d940a4bfc6702d01e34c3d300c4aa8ec23cfe08"),
}


@pytest.mark.parametrize("argv", sorted(COMPARE_DIGESTS))
def test_compare_stdout_digest(argv, model_dir, capsys):
    status, out, _ = _run(model_dir, capsys, ["compare", *argv])
    assert (status, digest(out)) == COMPARE_DIGESTS[argv]


CONVERT_DIGEST = "dde5f9ca6eaa1ccf2be70390826029d87e5486d389ad0214265faf2386ec5381"


def test_convert_check_digest(model_dir, capsys):
    # the check's tv is a sum of rounding residues, so it pins the summation order
    status, out, err = _run(model_dir, capsys, ["convert", "two_cell_partitioned.json",
                                                 "--to", "hmm", "--check", "6"])
    assert status == 0
    assert err == "check horizon=6 tv 7.6072028992908713e-17\n"
    assert digest(out) == CONVERT_DIGEST


# (model, --to): SHA-256 of stdout, pinned before the graph routines became one
# reachability closure, so a pruned state, a block or a state order that moves shows
CONVERSION_DIGESTS = {
    ("separated_mixture.json", "hmm"):
        "bb2ab5da09d953e90c911f50e288c8cb89b08215a700488d1561b9d7277fcf7e",
    ("stay_swap_mixture.json", "hmm"):
        "f99ee17e7724b6ba84087980c42ae47bf665dcba81275892aaa115f17c28dfe9",
    ("two_cell_partitioned.json", "hmm"): CONVERT_DIGEST,
    ("stay_swap_hmm.json", "markov_mixture"):
        "5c23ed081903186904d71d544976caff64460ca64ad23b0933bc90978fe9d8c3",
}


@pytest.mark.parametrize("model, to", sorted(CONVERSION_DIGESTS))
def test_convert_stdout_digest(model, to, model_dir, capsys):
    status, out, _ = _run(model_dir, capsys, ["convert", model, "--to", to])
    assert (status, digest(out)) == (0, CONVERSION_DIGESTS[model, to])


DEMO_MODELS = sorted(p.name for p in MODELS.glob("*.json"))
# model: (matrix name, classes, transient) per analyzed matrix
ANALYZE_STRUCTURE = {
    "noisy_hmm.json": [("underlying chain", [["s0", "s1"]], [])],
    "separated_mixture.json": [("component 0", [["a", "b"]], []),
                               ("component 1", [["a", "b"]], [])],
    "stay_swap_hmm.json": [("underlying chain", [["a|h0"], ["a|h1", "b|h1"]], [])],
    "stay_swap_mixture.json": [("component 0", [["a"], ["b"]], []),
                               ("component 1", [["a", "b"]], [])],
    "two_cell_partitioned.json": [
        ("component 0 (symbol chain)", [["1", "2", "3", "4"]], []),
        ("component 1 (symbol chain)", [["1", "2", "3", "4"]], [])],
}


@pytest.mark.parametrize("model", DEMO_MODELS)
def test_validate_and_analyze_demo_models(model, model_dir, capsys):
    assert _run(model_dir, capsys, ["validate", model]) == (0, "valid\n", "")
    status, out, _ = _run(model_dir, capsys, ["analyze", model, "--json"])
    assert status == 0
    assert [(e["matrix"], e["classes"], e["transient"])
            for e in json.loads(out)] == ANALYZE_STRUCTURE[model]


# (model, flags): SHA-256 of analyze stdout. The stationary digits come from GTH
# elimination with fixed-order sums, so no BLAS or LAPACK build moves them
ANALYZE_DIGESTS = {
    ("noisy_hmm.json",): "1dd4549c181d081e201a8d9510339893c60008a2c4f2990fcc6dc8b3bce835a0",
    ("noisy_hmm.json", "--json"):
        "18b8fae16718b8deab7b5c76ec2f793c2e9b931174a2dfbb63d8a066bb514288",
    ("separated_mixture.json",):
        "d987c89ed05f06fab0602ba6438e09012156a5c4aec3eb8f19879a34bb6b3c37",
    ("separated_mixture.json", "--json"):
        "dc37462eeefcfd05d35f337928c8cd9971ebb6c4596c2467909d6cb808836440",
    ("stay_swap_hmm.json",): "5e426236a9d2fd46a0d5c95f4678f5c0f5b216d1882328406228412f58a75478",
    ("stay_swap_hmm.json", "--json"):
        "d22592ccc8c234ba62d60982cdc1030e8800085b785cabff706a878aa8381b65",
    ("stay_swap_mixture.json",):
        "ec67c82e163e107017e5c364a4dee49ca42f6e24112dfdee59c828d2152884d2",
    ("stay_swap_mixture.json", "--json"):
        "9e7b92d682118af7d6b649a647475ee6ec75d3a69222da98f46af5b3a9cecb94",
    ("two_cell_partitioned.json",):
        "4c9b42cb3697b1f5779775eb47a2323161b706cf225ab8aefcfb6810f60dc75c",
    ("two_cell_partitioned.json", "--json"):
        "3acd38b8ee64202aea65aa0eac32fed0c60b79b765fc0c7eaeff1946402a2e2c",
}


@pytest.mark.parametrize("argv", sorted(ANALYZE_DIGESTS))
def test_analyze_stdout_digest(argv, model_dir, capsys):
    status, out, _ = _run(model_dir, capsys, ["analyze", *argv])
    assert (status, digest(out)) == (0, ANALYZE_DIGESTS[argv])


# name: (model, length, count, seed) of a seeded ``simulate`` sample
SAMPLES = {"separated": ("separated_mixture.json", 3000, 60, 13),
           "two_cell": ("two_cell_partitioned.json", 800, 30, 21)}


def _sample(model_dir, capsys, name):
    model, length, count, seed = SAMPLES[name]
    status, out, _ = _run(model_dir, capsys, ["simulate", model, "--length", str(length),
                                              "--count", str(count), "--seed", str(seed)])
    assert status == 0
    path = model_dir / f"{name}.txt"
    path.write_text(out)
    return str(path)


RECOVER_DIGESTS = {
    # (sample, argv): SHA-256 of stdout, of stderr and of the --out file
    ("separated", ()):
        ("918d5e264ca532e2cdb81c0571ebc634916d5c07ca6e189d1ea792e939ca67cb",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "28d0c3ad4fc0739effa45eeb91df97a19428a2cb2c054324ac5225811ee70d6c"),
    ("separated", ("--json",)):
        ("3716495a514f653c7a8d15b3e181af6a881a64e6697840511c52ba93969a65bc",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "28d0c3ad4fc0739effa45eeb91df97a19428a2cb2c054324ac5225811ee70d6c"),
    ("separated", ("--cluster-tol", "0.3", "--min-count", "3")):
        ("918d5e264ca532e2cdb81c0571ebc634916d5c07ca6e189d1ea792e939ca67cb",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "28d0c3ad4fc0739effa45eeb91df97a19428a2cb2c054324ac5225811ee70d6c"),
    ("separated", ("--cluster-tol", "0.3", "--min-count", "3", "--json")):
        ("b5ebafd4a776b664f2bb383f5b7aaefd738e34c421ff064228592feffaedd7f0",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "28d0c3ad4fc0739effa45eeb91df97a19428a2cb2c054324ac5225811ee70d6c"),
    # row b reaches 1200 visits only in the second component's trajectories
    ("separated", ("--min-count", "1200", "--json")):
        ("d0592bd61141121666bf417324e46bd16cd254dbc956e7279e28d3cf5ecbaab2",
         "819ce3a9a75193626c9c140f7e9b7a272b86cd34253a2b454a483a2723e3c12c",
         "23a3f86c05765e08367bee2f3333495990a56d8553e3fb73e7b9210f711fed68"),
    ("two_cell", ("--cluster-tol", "0.07", "--min-count", "20", "--json")):
        ("2e0d8c456a9f627d6d51fc6cb6fddfcc11aa9c69c0f177dbd326b6468e6af4d4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "6aad6d472b06ceb647faaa48172e8e73c04c5096df34e35acf5f22b5b5993732"),
    ("two_cell", ("--cluster-tol", "0.1", "--min-count", "20", "--json")):
        ("bedc0016cb71c33db7b0fdd0f3102562287d2dba73738ea6ea3384a4d1014cda",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "3d3c19298ff3cb5cd51685fe1c143901bf5f1f237fa64dd78a27f8b734f1fb38"),
    ("two_cell", ("--cluster-tol", "0.4", "--min-count", "20", "--json")):
        ("f8872fc9e6113c5cd499228df610058aa3cb5c1efc4a177f61374eab0de670cc",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "de1b17a58e365234c966303a4615999b03c318df65960f125c3271ff2c071d01"),
}


@pytest.mark.parametrize("sample, argv", sorted(RECOVER_DIGESTS))
def test_recover_digest(sample, argv, model_dir, capsys):
    path = _sample(model_dir, capsys, sample)
    status, out, err = _run(model_dir, capsys,
                            ["recover", path, *argv, "--out", "recovered.json"])
    assert status == 0
    written = (model_dir / "recovered.json").read_text()
    assert (digest(out), digest(err), digest(written)) == RECOVER_DIGESTS[(sample, argv)]


@pytest.mark.parametrize("sample, argv", sorted(RECOVER_DIGESTS))
def test_recover_digest_of_histogram_reference(sample, argv, model_dir, capsys, monkeypatch):
    # the pair-count estimates print what one tuple.count per symbol printed
    monkeypatch.setattr(recovery, "lln_recover", oracles.reference_recover_by_histograms)
    test_recover_digest(sample, argv, model_dir, capsys)


SUCCESSORS_DIGESTS = {
    # (sample, argv): (exit status, SHA-256 of stdout)
    ("separated", ("successors", "--index", "3")):
        (0, "8338974a6a58bc1773280b01c47938e23767212ea87ca0257d84334097819aa3"),
    ("two_cell", ("successors", "--index", "0")):
        (0, "bedb0bd125168eb7900195bf897d275631d610d2945bf89d3e142597299ecf8c"),
    ("separated", ("test-exchangeability", "--index", "2", "--seed", "4",
                   "--permutations", "300")):
        (0, "be6525842c4f6390d71adabf7fb7b25c61c37e18a85b781ea6b6842e38cda655"),
    ("separated", ("test-exchangeability", "--index", "2", "--seed", "4",
                   "--permutations", "300", "--json")):
        (0, "690f65a89594398d1509758591bdc45bdd16a0a37b993e97bc986030e9d02e28"),
    ("two_cell", ("test-exchangeability", "--index", "5", "--seed", "6",
                  "--permutations", "300")):
        (0, "faa4421edc4afd30acf130efd0ca714df69956d600a947336144a7197625ccfb"),
}


@pytest.mark.parametrize("sample, argv", sorted(SUCCESSORS_DIGESTS))
def test_successors_and_exchangeability_digest(sample, argv, model_dir, capsys):
    path = _sample(model_dir, capsys, sample)
    status, out, _ = _run(model_dir, capsys, [argv[0], path, *argv[1:]])
    assert (status, digest(out)) == SUCCESSORS_DIGESTS[(sample, argv)]


# The three test-exchangeability pins above as the fixed-count test printed them:
# with reference_row_exchangeability in place of the sequential test, the
# commands print these again. Only p-values above the level moved.
FIXED_COUNT_EXCHANGEABILITY_DIGESTS = {
    ("separated", ("test-exchangeability", "--index", "2", "--seed", "4",
                   "--permutations", "300")):
        (0, "41fa922484a86450ff527513e91913b07c25e637d07e841ca1613caf5550a0d1"),
    ("separated", ("test-exchangeability", "--index", "2", "--seed", "4",
                   "--permutations", "300", "--json")):
        (0, "9c30ebdfcabd98ad452b82edde37309d199ab1ed290b00a0f0fab10a4fa99df6"),
    ("two_cell", ("test-exchangeability", "--index", "5", "--seed", "6",
                  "--permutations", "300")):
        (0, "f56cba9fe105ef0faa28f8b03aff395abe1e59303c8bcffc2036f908b7eaa2f2"),
}


@pytest.mark.parametrize("sample, argv", sorted(FIXED_COUNT_EXCHANGEABILITY_DIGESTS))
def test_fixed_count_exchangeability_digest(sample, argv, model_dir, capsys, monkeypatch):
    monkeypatch.setattr(recovery, "test_row_exchangeability",
                        oracles.reference_row_exchangeability)
    path = _sample(model_dir, capsys, sample)
    status, out, _ = _run(model_dir, capsys, [argv[0], path, *argv[1:]])
    assert (status, digest(out)) == FIXED_COUNT_EXCHANGEABILITY_DIGESTS[(sample, argv)]


BATTERY_ARGV = ("--model", "battery.json", "--lemma", "all", "--occurrences", "3",
                "--horizon", "16", "--target-symbol", "a")
VERIFY_DIGESTS = {
    # argv after "verify-lemmas": (exit status, SHA-256 of stdout)
    BATTERY_ARGV:
        (0, "2e90e0d3ea79b14d7bd8b1e0d466f103e5edc72cb4545c8eda98e26fe6b9c83c"),
    BATTERY_ARGV + ("--json",):
        (0, "911f33aeec33fb501a4a8a5969f595225f0102d7d92043e82f9c832be26ff818"),
    ("--model", "noisy_hmm.json", "--lemma", "all", "--horizon", "12"):
        (1, "ddd5763e55d08caa5978fea1c51c81fa9e4f3c80b3c68786989dc1eb4fb785f5"),
    ("--model", "noisy_hmm.json", "--lemma", "all", "--horizon", "12", "--json"):
        (1, "8089133bc0754fc5239cf4a8d3f74cee2ca293efc72a443ae5f1ccaad07a342c"),
    ("--model", "stay_swap_hmm.json"):
        (0, "98a44acbee2c267eb7f66f4fa340c022b93c6d98aa7424ce8006117aa141d72c"),
    ("--model", "stay_swap_hmm.json", "--json"):
        (0, "7c1144b67629be67e957b91353c7e8ee639af31c17d6a257921ad77a91139bb6"),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS))
def test_verify_lemmas_stdout_digest(argv, model_dir, capsys):
    # battery.json is the benchmark's exact-mode model
    save_model(fixtures.iid_rows_three_state(), model_dir / "battery.json")
    status, out, err = _run(model_dir, capsys, ["verify-lemmas", *argv])
    assert err == ""
    assert (status, digest(out)) == VERIFY_DIGESTS[argv]


BATTERY = {name: (model, spec) for name, model, spec in fixtures.lemma_battery()}

STRONG_SPLITTING_DIGESTS = {
    # (battery model, lag k) at horizon 8: SHA-256 of repr of the result
    ("two_state_cycle", 0): "99f4e85ba92a5a772b076874b85bbfe5637e3786711ed625650c446531212a81",
    ("two_state_cycle", 1): "e63716655b0e3895cfa2ba6b310b3cdb96396c43e3547da886647e9c3afa51fe",
    ("two_state_cycle", 2): "a04eed3850978ee29ad623de821657938ecb4dea84cf355a89d7a1d8c1c4d9a3",
    ("three_cycle_aab", 0): "e155b59e06bd610bed1d0ed8522b13dd6309abf464c2b2566bccd09ff72fae12",
    ("three_cycle_aab", 1): "e057c230b4a64bc4aba0730720127fc663ceaa81f06c7d51b8357c389dc4f6cf",
    ("three_cycle_aab", 2): "dd23f7366ff44dd4c9a1aac57b3a0f793a86f07ff114d12a0b09b81da2a9e01c",
    ("fast_cycle", 0): "90023e87e163c66c838b489ef85f82e4e7d685ad8c4524b9fb7c8de97928084d",
    ("fast_cycle", 1): "96a00bbda91726bd1a3fba23aede23a4f7767c298de52e8bab106d083e9fd66b",
    ("fast_cycle", 2): "f0beb96817c1b4ed3ef423ce9404415ee6e118a1ddbd85bab592888c1683cd1d",
    ("identity_chain_pair", 0): "b28074a92afd7988a939e857a4dcbdcdb476264ad14d908d92b0cfdf2e8ff23c",
    ("identity_chain_pair", 1): "794510751ef964e9e9440f444a56313bac2ac8084823ec78a73f676aa07fb280",
    ("identity_chain_pair", 2): "5ca38b53a2eaa34d30464f9b955376dc546e27712594ece764f4c92bbde92882",
    ("iid_rows_two_state", 0): "20455e49427afc770bfa70c72fa745bdba6b9747f5029d805f9436a14205475d",
    ("iid_rows_two_state", 1): "6ed1cb52158e6cc5f19c0b59927ae9c9d586643e213207fa13571b7a12b93483",
    ("iid_rows_two_state", 2): "305992f039eae0f99ba1b2fabd11e1bd91fb1961aa6eaf680fd34b1793c639d0",
    ("iid_rows_three_state", 0): "7c7a920300fd796f8c17ff22ea5d072b7751b9d4af1abfe889c1dcb8191d3e7d",
    ("iid_rows_three_state", 1): "0ac95e19a28e55ee8563212f775659e7be0177d7e8cadc30421a55b87e6a2398",
    ("iid_rows_three_state", 2): "966d27938b29bb8a5a258827c466fb2a4ff4097a50cf4bb63dc524486d60af55",
    ("block_identical_rows", 0): "06314026a132c98a88b68092c639c7705e1120534d2bf1875b838e1f1f842711",
    ("block_identical_rows", 1): "763049ad31658be148934a9335983a6f794489548aedb54030285b1ebc52300a",
    ("block_identical_rows", 2): "299c46ae35e55600fc841ce2164869791746ccf38306eb5ad544705a6813a268",
    ("direct_sum_iid_blocks", 0): "5da009b362d522797e653efafbfa7a43bc99812c8915aeb562f94269c0165936",
    ("direct_sum_iid_blocks", 1): "2fb6c4eede43b640018116c969062729033d66453493d86ea3f6009db510f50c",
    ("direct_sum_iid_blocks", 2): "aafeb3028ad50491a88ced1dbf32219b03ccc1fade23a439cde25f94a6f4d0ec",
    ("two_state_three_symbols_iid", 0):
        "b96ded550061ce010474ca41dba78f7f90111cdd0754b9c409bc0d95e66e1a3c",
    ("two_state_three_symbols_iid", 1):
        "f70eb201d5a82fc22296f686fbe21d4747ccf5f01ac9d71b7fdef4d565f6f5d6",
    ("two_state_three_symbols_iid", 2):
        "0bb494bddac413f47a4a778f9c3b21319f490e7fbf80d832b6cd10671e58b625",
    ("near_uniform", 0): "70030dfd836056025af16267bf86edfae32d4374bf18e87ecaa297ca89ffe379",
    ("near_uniform", 1): "f14fca42882b73f0b419c969a1287100f00e03391f58fd2d3ba575f56c34dbc0",
    ("near_uniform", 2): "1b8ad7f167ca5f0070bff2c1e766265c730e70f0b2903a8e9936938886b265f7",
}


@pytest.mark.parametrize("name, k", sorted(STRONG_SPLITTING_DIGESTS))
def test_check_strong_splitting_repr_digest(name, k):
    model, spec = BATTERY[name]
    result = check_strong_splitting(model, spec, k, 8)
    assert digest(repr(result)) == STRONG_SPLITTING_DIGESTS[name, k]


def test_strong_splitting_negative_control_repr_digest():
    result = check_strong_splitting(fixtures.splitting_negative_control(),
                                    HittingTimeSpec.for_symbol("a"), 1, 8)
    assert digest(repr(result)) == (
        "18bd2efc5d7ab2aa4095994ee6a6a209ccf594063ec01ec43ee7b0f95226b88a")


HITTING_DIGESTS = {
    # battery model, two occurrences at horizon 8: SHA-256 of repr of the results
    "two_state_cycle": "d284f0917939e2ebca40f7c4c393bbfbb5ddcc5f06d8bbe0a487b56216c9cbdc",
    "three_cycle_aab": "e144a2dd58c5c4408ec817614a71568aaa10ef55b98f4f0af3d31e5c9ba10622",
    "fast_cycle": "d1e63d33b2ff0ef98b63c7d3882dd23d0485da4683e08188158b02aad3112da9",
    "identity_chain_pair": "a6c456336777699c3f88df3422c5d2633ac307f195ea50fdf9177baa70109c59",
    "iid_rows_two_state": "51be2f83e1f6eef1a175a59ff61377bba9be684edb33d27f49ec3fa7a16fba67",
    "iid_rows_three_state": "4e50387a2b2973365ee2519721d177d6bea6ecb81577a441bdc15ad7f0d2a333",
    "block_identical_rows": "5ad0d1cff86fdb6208c0cfd8e9c18a758947b0af6d5cef35172344f364315c2a",
    "direct_sum_iid_blocks": "26d2f1a84500556ae05dfb6ccd24c2b7422acb287aaea698ed36869217455d9d",
    "two_state_three_symbols_iid":
        "e8bd8683f49ea21357b811acb80f57f15f8ef5c72dae69b59bf80afbe0136f71",
    "near_uniform": "c20ccd570c9c2df810bac5aa1b2598a6b77394bec1d0b721f307594b124aa65f",
}


@pytest.mark.parametrize("name", sorted(HITTING_DIGESTS))
def test_check_hitting_time_lemmas_repr_digest(name):
    model, spec = BATTERY[name]
    results = check_hitting_time_lemmas(model, spec, 2, 8)
    assert digest(repr(results)) == HITTING_DIGESTS[name]
