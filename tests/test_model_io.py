import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import (
    load_script,
    random_hmm,
    random_iid_mixture,
    random_markov_mixture,
    random_partitioned,
    rng,
)
from test_sim import models
from chainmix.config import load_config
from chainmix.errors import ModelFormatError
from chainmix.model_io import (
    load_model,
    load_partition,
    model_from_dict,
    model_to_dict,
    read_trajectories,
    save_model,
    write_trajectories,
)
from chainmix.model_core import validate_model
from chainmix.sim import RandomSource, sample_many
from chainmix.successors import extract
from chainmix.fixtures import two_state_noisy


@pytest.mark.parametrize("maker", [random_iid_mixture, random_markov_mixture,
                                   random_hmm, random_partitioned])
def test_model_round_trip(tmp_path, maker):
    m = maker(rng(1))
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    assert type(back) is type(m)
    assert validate_model(back) == []
    assert model_to_dict(back) == model_to_dict(m)


def test_unknown_field_rejected():
    raw = model_to_dict(random_iid_mixture(rng(2)))
    raw["surprise"] = 1
    with pytest.raises(ModelFormatError, match="unknown fields.*surprise"):
        model_from_dict(raw)


def test_missing_field_rejected():
    raw = model_to_dict(random_iid_mixture(rng(3)))
    raw.pop("weights")
    with pytest.raises(ModelFormatError, match="missing fields.*weights"):
        model_from_dict(raw)


def test_unknown_type_rejected():
    with pytest.raises(ModelFormatError, match="type must be one of"):
        model_from_dict({"type": "mystery"})


def test_reserved_symbol_rejected_in_alphabet():
    raw = model_to_dict(random_iid_mixture(rng(4)))
    raw["alphabet"][0] = "@del"
    with pytest.raises(ModelFormatError, match="reserved"):
        model_from_dict(raw)


def test_shape_mismatch_rejected():
    raw = model_to_dict(random_iid_mixture(rng(5), n_symbols=3))
    raw["components"] = [[0.5, 0.5]]
    with pytest.raises(ModelFormatError, match="shape"):
        model_from_dict(raw)


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_json_nested_past_the_recursion_limit_is_malformed(tmp_path):
    # json.load raised RecursionError, which escaped the CLI: a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_stochastic_matrix_aux_type():
    m = model_from_dict({"type": "stochastic_matrix", "labels": ["u", "v"],
                         "rows": [[0.5, 0.5], [0.0, 1.0]]})
    assert m.labels == ("u", "v")


def test_partition_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"cells": [["1", "2"], ["3"]]}))
    p = load_partition(path)
    assert p.cell_index_of("3") == 2
    path.write_text(json.dumps({"cells": [["1"]], "extra": 1}))
    with pytest.raises(ModelFormatError):
        load_partition(path)


def test_trajectory_round_trip_with_hidden(tmp_path):
    trajs = sample_many(two_state_noisy(), 10, 3, RandomSource(6), trace_hidden=True)
    path = tmp_path / "t.txt"
    with open(path, "w") as fh:
        write_trajectories(fh, trajs, trace_hidden=True)
    back = read_trajectories(path)
    assert [t.symbols for t in back] == [t.symbols for t in trajs]
    assert [t.hidden for t in back] == [t.hidden for t in trajs]


def test_trajectory_comments_ignored(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# a comment\na b a\n\n# another\nb b\n")
    back = read_trajectories(path)
    assert [t.symbols for t in back] == [("a", "b", "a"), ("b", "b")]


def test_trajectory_orphan_hidden_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# hidden: s0 s1\na b\n")
    with pytest.raises(ModelFormatError, match="before any trajectory"):
        read_trajectories(path)


def test_a_second_hidden_trace_is_refused(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("a b\n# hidden: s0 s1\n# hidden: s1 s1\n")
    for index in (None, 0):
        with pytest.raises(ModelFormatError) as err:
            read_trajectories(path, index)
        assert str(err.value) == f"{path}:3: second hidden trace for trajectory 1"


def test_one_character_labels_enter_in_code_point_order(tmp_path):
    # each line's new labels are taken in code-point order, not in order of appearance
    path = tmp_path / "t.txt"
    path.write_text("b a b\n€ c é\n", encoding="utf-8")
    back = read_trajectories(path)
    assert back[0].labels == ("a", "b", "c", "é", "€")
    assert [t.codes.tolist() for t in back] == [[1, 0, 1], [4, 2, 3]]


def test_multi_character_labels_enter_in_sorted_order(tmp_path):
    # the same rule as for one-character labels: no code depends on first appearance
    path = tmp_path / "t.txt"
    path.write_text("bb aa bb\n# hidden: s1 s0 s1\ncc aa\n")
    back = read_trajectories(path)
    assert (back[0].labels, back[0].hidden_labels) == (("aa", "bb", "cc"), ("s0", "s1"))
    assert [t.codes.tolist() for t in back] == [[1, 0, 1], [2, 0]]
    assert back[0].hidden_codes.tolist() == [1, 0, 1]


def test_empty_trajectory_file_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# only comments\n")
    with pytest.raises(ModelFormatError, match="no trajectories"):
        read_trajectories(path)


def test_config_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tol_exact": 1e-10, "enum_budget": 1000}))
    cfg = load_config(path)
    assert cfg.tol_exact == 1e-10
    assert cfg.enum_budget == 1000
    assert cfg.alpha == 0.01
    path.write_text(json.dumps({"tol_exct": 1e-10}))
    with pytest.raises(ModelFormatError, match="unknown keys"):
        load_config(path)


# ---------------------------------------------------------------------------
# Coded trajectories through the file format

# labels of 1-3 characters, non-ASCII ones and a '#' past the first included
LABELS = st.text("ab%é€#Z", min_size=1, max_size=3).filter(lambda s: s[0] != "#")


def relabeled(model, symbols, states):
    """``model`` with its symbols and hidden states renamed, through the loader."""
    raw = model_to_dict(model)
    rename = dict(zip(raw["alphabet"], symbols))
    raw["alphabet"] = [rename[s] for s in raw["alphabet"]]
    if "y0" in raw:
        raw["y0"] = rename[raw["y0"]]
    if "partition" in raw:
        raw["partition"] = [[rename[s] for s in c] for c in raw["partition"]]
    if "hidden_states" in raw:
        raw["hidden_states"] = states[:len(raw["hidden_states"])]
    return model_from_dict(raw)


@given(models(), st.lists(LABELS, min_size=4, max_size=4, unique=True),
       st.lists(LABELS, min_size=3, max_size=3, unique=True),
       st.integers(1, 40), st.integers(1, 60), st.integers(0, 2 ** 32), st.booleans(),
       st.data())
@settings(max_examples=150, deadline=None)
def test_coded_trajectories_round_trip_through_the_file(model, symbols, states, count, length,
                                                        seed, trace, data):
    model = relabeled(model, symbols, states)
    trace = trace and hasattr(model, "hidden_states")
    trajs = sample_many(model, length, count, RandomSource(seed), trace)
    fh = io.StringIO()
    write_trajectories(fh, trajs, trace_hidden=trace)
    text = fh.getvalue()
    assert text == "".join(" ".join(t.symbols) + "\n"
                           + ("# hidden: " + " ".join(t.hidden) + "\n" if trace else "")
                           for t in trajs)
    with tempfile.TemporaryDirectory() as tmp:   # no tmp_path: one per example
        path = Path(tmp) / "t.txt"
        path.write_text(text, encoding="utf-8")
        back = read_trajectories(path)
        i = data.draw(st.integers(0, count - 1))
        one = read_trajectories(path, index=i)
    assert [(t.symbols, t.hidden) for t in back] == [(t.symbols, t.hidden) for t in trajs]
    assert (one.symbols, one.hidden) == (trajs[i].symbols, trajs[i].hidden)
    for t in back if length > 1 else ():
        got, want = extract(t), oracles.reference_extract(t)
        assert got == want and list(got.rows) == list(want.rows)
        assert got.pair_counts.tolist() == [[row.count(s) for s in want.rows]
                                            for row in want.rows.values()]


def test_demo_models_script_writes_the_committed_models(tmp_path, capsys):
    assert load_script("make_demo_models").main(["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"wrote 5 model files to {tmp_path}\n"
    committed = Path(__file__).resolve().parent.parent / "models"
    names = sorted(p.name for p in committed.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names and len(names) == 5
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes()


# ---------------------------------------------------------------------------
# The reader against the reference reader that strips and splits every line

# one-character labels, a later one often of a smaller code point, and
# whitespace that str.split splits on but a line break does not end: ASCII
# bytes that bytes.split keeps (\x1c-\x1f), and longer characters. \x7f is a label
ONE_CHAR = st.sampled_from(["a", "b", "Z", "é", "€", "#", "%", "\x7f", "\x0b", "\x0c", "\x1c",
                            "\x1d", "\x1e", "\x1f", "\x85", "\u2028"])
WORD = st.text("ab%é€#Z\x7f", min_size=1, max_size=3)
SEPARATOR = st.sampled_from([" ", " ", " ", "  ", "\t", "\x0c", "\x1c", "\x1f", "\x85",
                             "\u2028"])
EDGE = st.sampled_from(["", "", "", " ", "\t", "  "])        # leading or trailing blanks
END = st.sampled_from(["\n", "\n", "\r\n", "\r"])
HIDDEN = st.sampled_from(["s0", "s1", "x", "é", "a"])
HIDDEN_TAG = st.sampled_from(["# hidden: ", "#hidden:", "  # hidden:", "# hidden:\t"])


@st.composite
def trajectory_texts(draw):
    """File texts mixing lines in the writer's shape for one-character labels, one
    trailing space allowed, with lines of any other shape: hidden traces, comments,
    blank lines, several separators, and every line ending, the last one possibly
    missing."""
    lines, length = [], 0     # length: tokens of the last trajectory line, for hidden traces
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["one_char", "one_char", "words", "hidden", "comment",
                                     "blank"]))
        if kind == "one_char":
            line = " ".join(draw(st.lists(ONE_CHAR, min_size=1, max_size=8)))
            edge = draw(st.integers(0, 3))
            if edge == 0:
                line = draw(EDGE) + line + draw(EDGE)
            elif edge == 1:
                line += " "         # the one trailing space the byte path also reads
        elif kind == "words":
            words = draw(st.lists(WORD, min_size=1, max_size=5))
            line = draw(EDGE) + "".join(w + draw(SEPARATOR) for w in words[:-1]) + words[-1]
            line += draw(EDGE)
        elif kind == "hidden":
            size = length if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
            line = draw(HIDDEN_TAG) + " ".join(draw(st.lists(HIDDEN, min_size=size,
                                                             max_size=size)))
        elif kind == "comment":
            line = draw(st.sampled_from(["#", "# note", "#a b", "  # x\ty"]))
        else:
            line = draw(EDGE)
        if (stripped := line.strip()) and not stripped.startswith("#"):
            length = len(stripped.split())
        lines.append(line + draw(END))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _read_outcome(reader, path, index):
    """What ``reader`` makes of the file: codes with their dtypes and labels, or
    the type and message of its error."""
    try:
        got = reader(path, index)
    except Exception as exc:       # any error: its type and message are compared
        return type(exc), str(exc)
    coded = lambda c: None if c is None else (c.tolist(), c.dtype.str)
    return [(coded(t.codes), t.labels, coded(t.hidden_codes), t.hidden_labels)
            for t in (got if index is None else [got])]


@given(trajectory_texts(), st.integers(-1, 9))
@settings(max_examples=400, deadline=None)
def test_reader_equals_the_reference_reader(text, index):
    with tempfile.TemporaryDirectory() as tmp:   # no tmp_path: one per example
        path = Path(tmp) / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        for i in (None, index):
            assert (_read_outcome(read_trajectories, path, i)
                    == _read_outcome(oracles.reference_read_trajectories, path, i))


@pytest.mark.parametrize("words", [254, 255])
def test_one_character_lines_at_256_labels(tmp_path, words):
    # a line of ``words`` two-character labels, then two lines of one-character labels
    # that add 2 and 1: past 256 labels in the map, codes no longer fit a byte
    path = tmp_path / "t.txt"
    path.write_text(" ".join(f"{i:02x}" for i in range(words)) + "\na b a\nb c\n")
    got = _read_outcome(read_trajectories, path, None)
    assert got == _read_outcome(oracles.reference_read_trajectories, path, None)
    assert [codes[1] for codes, *_ in got] == ["|u1", "|u1" if words == 254 else "<u2", "<u2"]
