"""The README's library sketch runs against the package as documented, and
its CLI lines parse with the package's own argument parser."""

import re
import shlex
from pathlib import Path

from chanid import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, lang: str) -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL)
    assert match, f"no {lang} block under '## {section}'"
    return match.group(1)


def test_library_sketch_runs():
    namespace = {}
    exec(compile(_block("Library sketch", "python"), "README.md", "exec"), namespace)
    assert namespace["report"].fidelity >= namespace["report"].bound - 1e-9
    assert namespace["rec"].cp_map.dim_out == 2


def test_cli_block_parses():
    # parse_args only: no command runs and no file is read, so a flag the
    # parser no longer has fails here
    lines = [line for line in _block("CLI", "sh").splitlines() if line.startswith("chanid ")]
    assert {shlex.split(line)[1] for line in lines} == {
        "randchannel", "reconstruct", "fidelity", "cbdist", "roundtrip", "sweep"
    }
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line)[1:])
