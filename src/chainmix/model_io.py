"""Model and trajectory file I/O.

Model files are JSON objects with a top-level ``"type"`` in ``{"hmm",
"markov_mixture", "iid_mixture", "partitioned_kernel_mixture"}`` (plus the
auxiliary ``"stochastic_matrix"``) and fields mirroring the model dataclasses.
Arrays are row-major nested lists; symbol labels are strings; the fictitious
symbol is spelled ``@del`` and is implicit: it may not appear among a file's
emittable symbols, and partition files list the real cells ``E_1..E_J`` only.
The loader rejects unknown fields. Shapes are the model types' own rules: a
file whose arrays do not fit is refused by the type it builds, and the loader
turns that refusal into a :class:`ModelFormatError` naming the file. One
reader (:func:`read_json`) opens and parses every JSON input, config files
included. ``_SCHEMAS`` lists each type's class and fields in file order; the
key check and :func:`model_to_dict` both read it, the writer taking each field
from the model attribute of that name.

Trajectory files are UTF-8 text and hold one trajectory per line as
whitespace-separated symbols. A line ``# hidden: x0 x1 ...`` attaches a hidden
trace to the preceding trajectory, which takes one at most; other ``#`` lines
are comments. So the loader refuses ``alphabet`` and ``hidden_states`` labels
that are empty, hold whitespace or start with ``#``. Labels exist only at this
boundary: the reader encodes each line into one label -> code map by the rule of
:func:`chainmix.sim.encode`, and the writer decodes each line at once. The
reader takes bytes: a line of one-byte labels in the writer's shape is sliced and
translated to codes; every other line is decoded, stripped and split, to the
same codes.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ModelFormatError
from .model_core import (
    DELTA,
    Alphabet,
    Distribution,
    HMMModel,
    IIDMixtureModel,
    MarkovMixtureModel,
    Partition,
    PartitionedKernelMixture,
    StochasticMatrix,
)
from .sim import Trajectory, encode

_SCHEMAS = {     # each type's class and its fields after "type", in the order a file lists them
    "hmm": (HMMModel, ("alphabet", "hidden_states", "pi", "P", "readout")),
    "markov_mixture": (MarkovMixtureModel, ("alphabet", "y0", "weights", "components")),
    "iid_mixture": (IIDMixtureModel, ("alphabet", "weights", "components")),
    "partitioned_kernel_mixture": (PartitionedKernelMixture,
                                   ("alphabet", "partition", "y0", "weights", "kernels")),
    "stochastic_matrix": (StochasticMatrix, ("labels", "rows")),
}
_DATA = {Alphabet: "emittable", Distribution: "weights", StochasticMatrix: "rows",
         Partition: "cells"}    # the attribute a field of this type is written as


def read_json(path, where=None):
    """The parsed JSON of a model, partition or config file; malformed JSON, or JSON
    nested past the recursion limit, is a :class:`ModelFormatError` naming ``where``
    (default: the path)."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"{where or path}: not valid JSON ({exc})") from exc


def _check_keys(raw: dict, kind: str, where: str) -> None:
    expected = {"type", *_SCHEMAS[kind][1]}
    unknown = sorted(set(raw) - expected)
    if unknown:
        raise ModelFormatError(f"{where}: unknown fields {unknown} for type {kind!r}")
    missing = sorted(expected - set(raw))
    if missing:
        raise ModelFormatError(f"{where}: missing fields {missing} for type {kind!r}")


def _labels(raw, name: str, where: str) -> list:
    """``raw`` if it is a list of labels a trajectory file can carry."""
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise ModelFormatError(f"{where}: {name} must be a list of strings")
    for s in raw:
        if s.split() != [s] or s.startswith("#"):
            raise ModelFormatError(f"{where}: {name} label {s!r} is empty, holds whitespace "
                                   "or starts with '#', which trajectory files cannot carry")
    return raw


def _alphabet(raw, where: str) -> Alphabet:
    _labels(raw, "alphabet", where)
    if DELTA in raw:
        raise ModelFormatError(
            f"{where}: {DELTA!r} is the reserved fictitious symbol and is implicit"
        )
    if len(set(raw)) != len(raw):
        raise ModelFormatError(f"{where}: alphabet labels are not unique")
    return Alphabet.of(raw)


def _partition(cells, name: str, where: str) -> Partition:
    if (not isinstance(cells, list)
            or not all(isinstance(c, list) and all(isinstance(s, str) for s in c)
                       for c in cells)):
        raise ModelFormatError(f"{where}: {name} must be a list of symbol lists")
    return Partition(cells)


def _array(raw, name: str, where: str) -> np.ndarray:
    try:
        if not isinstance(raw, list):
            raise TypeError(f"{type(raw).__name__}, not a list")
        return np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{where}: {name} is not a numeric array ({exc})") from exc


def model_from_dict(raw: dict, where: str = "model"):
    """The model of a parsed file. The model types check their own shapes when built;
    their refusal, like every schema error, is a :class:`ModelFormatError` naming ``where``."""
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{where}: top level must be an object")
    kind = raw.get("type")
    if kind not in _SCHEMAS:
        raise ModelFormatError(
            f"{where}: type must be one of {sorted(_SCHEMAS)}, got {kind!r}"
        )
    _check_keys(raw, kind, where)
    try:
        return _build(raw, kind, where)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def _build(raw: dict, kind: str, where: str):
    if kind == "stochastic_matrix":
        labels = raw["labels"]
        if not (isinstance(labels, list) and labels and all(isinstance(s, str) for s in labels)):
            raise ModelFormatError(f"{where}: labels must be a nonempty list of strings")
        return StochasticMatrix(_array(raw["rows"], "rows", where), tuple(labels))

    alphabet = _alphabet(raw["alphabet"], where)
    if kind == "hmm":
        hidden = tuple(_labels(raw["hidden_states"], "hidden_states", where))
        return HMMModel(hidden, alphabet, Distribution(_array(raw["pi"], "pi", where)),
                        StochasticMatrix(_array(raw["P"], "P", where), hidden),
                        _array(raw["readout"], "readout", where))
    w = Distribution(_array(raw["weights"], "weights", where))
    if kind == "markov_mixture":
        comps = _array(raw["components"], "components", where)
        return MarkovMixtureModel(alphabet, str(raw["y0"]), w,
                                  tuple(StochasticMatrix(c, alphabet.emittable) for c in comps))
    if kind == "iid_mixture":
        comps = _array(raw["components"], "components", where)
        return IIDMixtureModel(alphabet, w, tuple(Distribution(c) for c in comps))
    # partitioned_kernel_mixture
    return PartitionedKernelMixture(alphabet, _partition(raw["partition"], "partition", where),
                                    w, _array(raw["kernels"], "kernels", where), str(raw["y0"]))


def _plain(value):
    """A model field as JSON data: tuples and arrays as lists, the types in ``_DATA``
    as their data, strings as they are."""
    value = getattr(value, _DATA[type(value)]) if type(value) in _DATA else value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def model_to_dict(model) -> dict:
    for kind, (cls, fields) in _SCHEMAS.items():
        if type(model) is cls:
            return {"type": kind, **{f: _plain(getattr(model, f)) for f in fields}}
    raise TypeError(f"cannot serialize {type(model).__name__}")


def load_model(path):
    return model_from_dict(read_json(path), where=str(path))


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_partition(path) -> Partition:
    raw = read_json(path)
    if not isinstance(raw, dict) or set(raw) != {"cells"}:
        raise ModelFormatError(f"{path}: partition file must be {{\"cells\": [[...], ...]}}")
    return _partition(raw["cells"], "cells", str(path))


_READ_BUFFER = 1 << 18   # bytes: a line of 10^4 labels comes from one read, not three joined
# the bytes a one-byte label cannot be: the ASCII whitespace str.split splits on, and
# the bytes of longer UTF-8 characters
_NOT_A_LABEL = b"\t\n\v\f\r\x1c\x1d\x1e\x1f " + bytes(range(0x80, 0x100))


class _ByteCodes:
    """A label -> code map read through ``bytes.translate``: ``known`` lists its
    one-byte labels, and ``table`` takes each of them to its code."""

    def __init__(self):
        self.index, self.known, self.table = {}, b"", bytes(256)

    def labels(self, body: bytes) -> tuple[bytes, bytes] | None:
        """The labels of a line in the writer's shape for one-byte labels (a label at
        each even offset, a space at each odd one) and those of them not yet in the
        map, else None."""
        if body[:1] in (b"", b"#") or body.count(b" ") != len(body) // 2:
            return None
        chars = body[::2]
        new = chars.translate(None, self.known)
        return (chars, new) if len(new.translate(None, _NOT_A_LABEL)) == len(new) else None

    def encode(self, chars: bytes, new: bytes) -> np.ndarray:
        """The codes of the labels :meth:`labels` gives; the new ones enter the map by
        :func:`encode`'s rule."""
        if new:         # new to the map, or added to it by a line of words
            encode(new.decode(), self.index)
        if len(self.index) > 256:           # codes of more than one byte
            return encode(chars.decode(), self.index)
        if new:
            one = {s: c for s, c in self.index.items() if len(s) == 1 and s.isascii()}
            self.known = "".join(one).encode()
            self.table = bytes(one.get(chr(b), 0) for b in range(256))
        return np.frombuffer(chars.translate(self.table), np.uint8)


def _lines(fh):
    r"""The lines of a binary file with their ends removed, split at ``\n``, ``\r\n``
    and ``\r`` as text mode splits them."""
    for line in fh:
        if b"\r" in line:
            yield from line.splitlines()
        else:
            yield line[:-1] if line.endswith(b"\n") else line


def read_trajectories(path, index: int | None = None):
    """The trajectories of a UTF-8 file, or with ``index`` only the one at that
    position: the lines before it are checked but not encoded, reading stops after
    it and its ``# hidden:`` line, and an index outside the file reads on only to
    count. Symbols share one label -> code map, hidden traces another. A line of
    one-byte labels in the writer's shape goes from bytes to codes by two
    ``bytes.translate`` calls; every other line is decoded, stripped and split."""
    found, symbols, states = [], _ByteCodes(), {}   # [codes, hidden codes or None] per kept one
    n = length = traced = 0               # trajectories so far, the last's length, last traced
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        for lineno, line in enumerate(_lines(fh), start=1):
            shaped = symbols.labels(line)      # (labels, new labels) or None
            if shaped is None:
                try:
                    line = line.decode().strip()
                except UnicodeDecodeError as exc:
                    raise ModelFormatError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
            if shaped is None and line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("hidden:"):
                    if not n:
                        raise ModelFormatError(f"{path}:{lineno}: hidden trace before any "
                                               "trajectory")
                    if traced == n:
                        raise ModelFormatError(f"{path}:{lineno}: second hidden trace for "
                                               f"trajectory {n}")
                    hidden = body[len("hidden:"):].split()
                    if len(hidden) != length:
                        raise ModelFormatError(f"{path}:{lineno}: hidden trace length "
                                               f"{len(hidden)} != trajectory length {length}")
                    traced = n
                    if index in (None, n - 1):
                        found[-1][1] = encode(hidden, states)
            elif shaped is not None or line:
                if index is not None and 0 <= index < n:
                    break
                words = line.split() if shaped is None else shaped[0]
                n, length = n + 1, len(words)
                if index in (None, n - 1):
                    found.append([encode(words, symbols.index) if shaped is None
                                  else symbols.encode(*shaped), None])
    if not n:
        raise ModelFormatError(f"{path}: no trajectories found")
    if index is not None and not 0 <= index < n:
        raise ModelFormatError(f"trajectory index {index} out of range (file has {n})")
    labels = tuple(symbols.index)
    out = [Trajectory(c, h, None, labels, tuple(states)) for c, h in found]
    return out if index is None else out[0]


def _line(codes: np.ndarray, labels: tuple) -> str:
    """The labels of ``codes`` joined by spaces, by one gather of ``label + " "`` bytes
    if all have one width, else of labels."""
    cells = [s.encode() + b" " for s in labels]
    if len(set(map(len, cells))) > 1:
        return " ".join(np.array(labels, dtype=object).take(codes).tolist()) + "\n"
    return np.array(cells).take(codes).tobytes()[:-1].decode() + "\n"


def write_trajectories(fh, trajectories, trace_hidden: bool = False) -> None:
    for t in trajectories:
        fh.write(_line(t.codes, t.labels))
        if trace_hidden and t.hidden_codes is not None:
            fh.write("# hidden: " + _line(t.hidden_codes, t.hidden_labels))
