"""The CLI as a real process, ``python -m chainmix.cli``: its exit status and stderr.

In-process tests call ``main`` and see what it returns. Only a process shows an
exception that escaped ``main`` (a traceback and exit 1, the status of a failed
check), and what a reader that closes stdout early leaves on stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def command(*argv) -> list:
    return [sys.executable, "-m", "chainmix.cli", *map(str, argv)]


def chainmix(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(command(*argv), capture_output=True, text=True, env=ENV, timeout=120)


def test_a_reader_that_closes_stdout_early_is_not_an_error():
    # 32,768 lines, far past a pipe's buffer: the writes after the close fail
    proc = subprocess.Popen(command("law", MODELS / "noisy_hmm.json", "--horizon", "14"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert len(first.split()) == 16        # Y_0..Y_14 and the probability


def test_law_imports_neither_fractions_nor_decimal():
    # the digit tables come from integer arithmetic, at no cost in start-up or memory
    code = ("import sys, chainmix.cli; chainmix.cli.main(['law', sys.argv[1], '--horizon', '3']);"
            " print(sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code, MODELS / "noisy_hmm.json"],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert (done.returncode, done.stdout.count("\n"), done.stderr) == (0, 16, "[]\n")


def test_validate_of_a_valid_file():
    done = chainmix("validate", MODELS / "noisy_hmm.json")
    assert (done.returncode, done.stdout, done.stderr) == (0, "valid\n", "")


def test_validate_of_a_directory_is_an_input_error(tmp_path):
    done = chainmix("validate", tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def _model(name):
    return json.loads((MODELS / name).read_text())


def _bad_hmm():
    raw = _model("noisy_hmm.json")
    raw["pi"].append(0.0)
    return raw


def _bad_markov_mixture():
    raw = _model("separated_mixture.json")
    raw["components"][0].pop()
    return raw


def _bad_partitioned():
    raw = _model("two_cell_partitioned.json")
    raw["kernels"] = [kernel[:1] for kernel in raw["kernels"]]
    return raw


@pytest.mark.parametrize("raw", [
    _bad_hmm(),
    _bad_markov_mixture(),
    {"type": "iid_mixture", "alphabet": ["a", "b"], "weights": [0.5, 0.5],
     "components": [[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]]},
    _bad_partitioned(),
    {"type": "stochastic_matrix", "labels": ["u", "v"], "rows": [[0.5, 0.5], [0.0, 1.0], [1, 0]]},
], ids=lambda raw: raw["type"])
def test_a_file_whose_shapes_do_not_fit_is_an_input_error(raw, tmp_path):
    # the model type refuses the shapes; the loader names the file, still exit 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    done = chainmix("validate", path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {path}: ") and "Traceback" not in done.stderr
