"""Exact outputs print the same bytes under every OpenBLAS kernel.

Every float contraction on an exact path is ``model_core.contract``, one fixed
left-to-right sum that calls no BLAS, so ``law``, ``compare``, ``convert`` and exact
``verify-lemmas`` must not move a digit when OpenBLAS loads another kernel, and the
certificate of the HMM-to-mixture conversions must reach the same verdict with the
same message. OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when it loads, so each kernel
runs the commands through ``cli.main`` in a child process of its own and prints each
command's stdout and stderr. Each child first prints the bytes of two BLAS products,
which show that the kernels really differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("Haswell", "Sandybridge", "Nehalem")

CHILD = """
import contextlib, io, sys
import numpy as np
from chainmix import fixtures
from chainmix.cli import main
from chainmix.constructions import hmm_to_iid_mixture, iid_mixture_to_hmm
from chainmix.model_io import save_model

models, work = sys.argv[1:]
noisy, separated = f"{models}/noisy_hmm.json", f"{models}/separated_mixture.json"
battery, converted = f"{work}/battery.json", f"{work}/separated_hmm.json"
lumped = f"{work}/lumped_hmm.json"
save_model(fixtures.iid_rows_three_state(), battery)
save_model(iid_mixture_to_hmm(hmm_to_iid_mixture(fixtures.block_identical_rows())), lumped)
r = np.random.default_rng(0)
A, B = r.random((8, 8)), r.random((8, 8))
print("blas", (A @ B).tobytes().hex(), (A[0] @ B).tobytes().hex())
for argv in [
        ["law", noisy, "--horizon", "9"],
        ["law", noisy, "--horizon", "9", "--json"],
        ["convert", separated, "--to", "hmm", "--out", converted],
        ["compare", separated, converted, "--horizon", "10"],
        ["verify-lemmas", "--model", noisy, "--lemma", "all", "--horizon", "12"],
        ["verify-lemmas", "--model", battery, "--lemma", "all", "--occurrences", "3",
         "--horizon", "16", "--target-symbol", "a"],
        ["convert", noisy, "--to", "iid_mixture"],
        ["convert", f"{models}/stay_swap_hmm.json", "--to", "markov_mixture"],
        ["convert", lumped, "--to", "iid_mixture", "--check", "6"],
        ["convert", f"{models}/two_cell_partitioned.json", "--to", "hmm", "--check", "6"]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    print(*argv[:1], "exit", status)
    print(out.getvalue())
    print(err.getvalue())
"""


def _blas() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif("openblas" not in _blas().lower(),
                    reason="NumPy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE selects nothing")
def test_exact_outputs_are_identical_under_every_openblas_kernel(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    controls, outputs = {}, {}
    for kernel in KERNELS:
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "models"), str(tmp_path)],
                               env=env, capture_output=True, text=True, timeout=600)
        if child.returncode < 0:
            pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernel")
        assert child.returncode == 0, child.stderr
        controls[kernel], _, outputs[kernel] = child.stdout.partition("\n")
    if len(set(controls.values())) == 1:
        pytest.skip("OPENBLAS_CORETYPE moved no BLAS product here, so the kernels are alike")
    base = outputs[KERNELS[0]].splitlines()
    for kernel in KERNELS[1:]:
        moved = [(a, b) for a, b in zip(base, outputs[kernel].splitlines()) if a != b]
        same = outputs[kernel] == outputs[KERNELS[0]]
        assert same, f"{kernel}: {len(moved)} lines differ from {KERNELS[0]}'s, first {moved[:1]}"
