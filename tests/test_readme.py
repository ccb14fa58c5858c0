"""The README's code blocks run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ibimpute

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n{title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def _block(title: str, lang: str) -> str:
    """The first fenced ``lang`` block under the heading ``title``."""
    return re.search(rf"```{lang}\n(.*?)```", _section(title), re.S).group(1)


def test_quickstart_runs_and_writes_every_artifact(tmp_path):
    # the child imports the package this test imported, installed or not
    src = str(Path(ibimpute.__file__).resolve().parent.parent)
    pythonpath = os.environ.get("PYTHONPATH", "")
    script = (
        "set -e\n"
        f'ibimpute() {{ "{sys.executable}" -m ibimpute "$@"; }}\n'
        + _block("## Quickstart", "sh")
    )
    proc = subprocess.run(
        ["sh", "-c", script],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, pythonpath]))},
    )
    assert proc.returncode == 0, proc.stderr
    artifacts = re.findall(r"^\| `([^`]+)` \|", _section("### Artifacts"), re.M)
    assert len(artifacts) == 7
    for name in artifacts:
        assert (tmp_path / "runs" / "demo" / name).is_file(), name


def test_library_use_block_runs(capsys):
    exec(_block("## Library use", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    mae, mse, alignment = map(float, lines[1].split())
    assert mae > 0.0 and mse > 0.0 and -1.0 <= alignment <= 1.0
