"""Seeded outputs pinned by SHA-256 digest.

The digests were computed with the one-trajectory-at-a-time scalar samplers
that ``tests/oracles.py`` keeps as the reference draw order, so any change to
draw order, inverse-CDF choices or Monte Carlo counting shows up here. Sizes
cross the lockstep samplers' block and chunk boundaries. The ``check_lemmas_mc``
digests hash ``repr`` of the results: labels, lhs, rhs, gap, allowed (including
its numpy scalar type), skipped and residual.

The ``law``, ``compare`` and ``convert --check`` digests were computed with the
per-entry rank/digit conversions that ``tests/oracles.py`` keeps as the
reference, so a change to line order, dict insertion order (and with it the
summation order of ``tv`` and ``max_gap``) or a printed digit shows up here.
They cover dense and sparse tables, lifted and marginalized laws, and unequal
pairs that print a ``worst_string``.

The ``recover``, ``successors`` and ``test-exchangeability`` digests were
computed with the per-symbol successors and histogram loops and the pairwise
merge that ``tests/oracles.py`` keeps as ``reference_extract`` and
``reference_lln_recover``, so a moved float in an estimate, centroid or
stderr, a different cluster or cluster order, or a changed successors row
shows up here. At each ``two_cell_partitioned`` tolerance some cluster holds
two members farther apart than the tolerance, joined through single-linkage
chains.
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


EXTRA_MODELS = {"iid.json": IID, "sparse6.json": _sparse6([0.3, 0.7]),
                "sparse6b.json": _sparse6([0.35, 0.65])}


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
        "9da4df46c897616961c09cb0f2bd76019abcb3a72eb9ac581746661c75f46cf0",
    ("noisy_hmm.json", 1, True):
        "0e59cee9c9a85d79940157d478f12a2f0f9de33d4d940dda7307f04858018f23",
    ("noisy_hmm.json", 3, False):
        "8cafa13ad67cf48df9243c5ab2d84a954077eb03fe6d763eb3cd39cda3388384",
    ("noisy_hmm.json", 3, True):
        "f66eac2748fc53616d7a1d471042f0c189d026f064dde3cf5f03416e5a52fabe",
    ("noisy_hmm.json", 9, False):
        "8db26bcefb51592cdadc9f01f0279932bf16876aebf5a6bfce34d23a636fcae4",
    ("noisy_hmm.json", 9, True):
        "11a5c6aa96b0fb8a1e6145163c8b83f84382d14944a9bbc12c69b574029a443c",
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
}


@pytest.mark.parametrize("model, horizon, as_json", sorted(LAW_DIGESTS))
def test_law_stdout_digest(model, horizon, as_json, model_dir, capsys):
    argv = ["law", model, "--horizon", str(horizon)] + (["--json"] if as_json else [])
    status, out, _ = _run(model_dir, capsys, argv)
    assert status == 0
    assert digest(out) == LAW_DIGESTS[model, horizon, as_json]


COMPARE_DIGESTS = {
    # argv after "compare": (exit status, SHA-256 of stdout)
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
        (1, "d6e821bfb4f7eeefd788217109e264dd1ab9efcba1e4a923ebad4b530043d010"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7", "--json"):
        (1, "2f7b9fd3356777831187b27420506ddb329cd965773386bcdc90e14d8ec259f7"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7", "--drop-first"):
        (1, "150788450de84a425611adf50240f13418cc3828408acd16339921636410b27d"),
    ("noisy_hmm.json", "stay_swap_hmm.json", "--horizon", "7", "--drop-first", "--json"):
        (1, "ceeb22e27c314aa35f95e8babc1fe1d3e2fcd981019c2a935df0993fff346357"),
    ("separated_mixture.json", "noisy_hmm.json", "--horizon", "7", "--drop-first"):
        (1, "a8b10b41863878aa428a955474b5a6fba0f3c8303602d913f5dba786d3cc865f"),
    ("separated_mixture.json", "noisy_hmm.json", "--horizon", "7", "--drop-first", "--json"):
        (1, "55c32d799ac83eb5237b2acfeb7729c5744d59677b8a0b04144c4034d96caa79"),
    ("sparse6.json", "sparse6b.json", "--horizon", "6"):
        (1, "d3ad0833b3cca062348ae87c4956acd3841cd0d9b75a346db177c00d45beec87"),
    ("sparse6.json", "sparse6b.json", "--horizon", "6", "--json"):
        (1, "a3685735c30c343d33fef761c5a0ce224d763427ef92443c80b34da2fb1dedf6"),
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


SUCCESSORS_DIGESTS = {
    # (sample, argv): (exit status, SHA-256 of stdout)
    ("separated", ("successors", "--index", "3")):
        (0, "8338974a6a58bc1773280b01c47938e23767212ea87ca0257d84334097819aa3"),
    ("two_cell", ("successors", "--index", "0")):
        (0, "bedb0bd125168eb7900195bf897d275631d610d2945bf89d3e142597299ecf8c"),
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


@pytest.mark.parametrize("sample, argv", sorted(SUCCESSORS_DIGESTS))
def test_successors_and_exchangeability_digest(sample, argv, model_dir, capsys):
    path = _sample(model_dir, capsys, sample)
    status, out, _ = _run(model_dir, capsys, [argv[0], path, *argv[1:]])
    assert (status, digest(out)) == SUCCESSORS_DIGESTS[(sample, argv)]
