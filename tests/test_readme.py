"""README's CLI block runs as written.

Each ``chainmix ...`` line of the fenced block under ``## CLI`` goes through
``cli.main`` in process, from the repository root, in order (later lines read
what earlier ones wrote), and must exit 0. Paths under ``/tmp/`` become a
temporary directory, ``> file`` writes stdout to that file, and ``| head`` is
dropped: the whole output is read.
"""

import contextlib
import shlex
from pathlib import Path

from chainmix.cli import main

ROOT = Path(__file__).resolve().parent.parent


def cli_block() -> list[str]:
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("chainmix ")]


def test_readme_cli_block_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    lines = cli_block()
    assert len(lines) == 14
    for line in lines:
        line = line.replace("/tmp/", f"{tmp_path}/").removesuffix(" | head")
        command, _, target = line.partition(" > ")
        with contextlib.ExitStack() as stack:
            if target:
                fh = stack.enter_context(open(target, "w"))
                stack.enter_context(contextlib.redirect_stdout(fh))
            status = main(shlex.split(command)[1:])
        assert status == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "t.txt").read_text().count("\n") == 200
    assert {p.name for p in tmp_path.iterdir()} == {"hmm.json", "t.txt", "recovered.json"}
