"""The README's code blocks run as written, its op list matches the
autodiff engine, and the docs name the subcommands the CLI defines."""

import argparse
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import ibimpute
from ibimpute import autodiff, cli
from ibimpute.config import RunConfig

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
    assert len(artifacts) == 8
    for name in artifacts:
        assert (tmp_path / "runs" / "demo" / name).is_file(), name


def test_configuration_reference_lists_the_defaults():
    documented = {}
    for line in _block("## Configuration reference", "ini").splitlines():
        key, _, value = line.split(";")[0].partition(" = ")
        documented[key] = value.strip()
    echoed = dict(
        line.split(" = ", 1) for line in RunConfig.from_sources().resolved_text().splitlines()
    )
    assert documented == echoed


def test_library_use_block_runs(capsys):
    exec(_block("## Library use", "python"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    mae, mse, alignment = map(float, lines[1].split())
    assert mae > 0.0 and mse > 0.0 and -1.0 <= alignment <= 1.0


def _autodiff_paragraph_names() -> set[str]:
    """Each backticked name in the README paragraph on the autodiff engine,
    with its ``ibimpute.autodiff.`` prefix and any call arguments dropped;
    spans such as ``x @ w + b`` or ``bias=`` are not names."""
    (paragraph,) = [
        p for p in README.read_text().split("\n\n") if p.startswith("The autodiff engine")
    ]
    name = re.compile(r"([A-Za-z_][\w.]*)(\(.*\))?")
    matches = [name.fullmatch(span) for span in re.findall(r"`([^`]+)`", paragraph)]
    found = {m.group(1).removeprefix("ibimpute.autodiff").lstrip(".") for m in matches if m}
    return found - {""}


def test_autodiff_paragraph_names_what_the_engine_defines():
    names = _autodiff_paragraph_names()
    for name in names:
        obj = autodiff
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {name}, which ibimpute.autodiff lacks"
            obj = getattr(obj, part)
    public = {
        name for name, f in inspect.getmembers(autodiff, inspect.isfunction)
        if f.__module__ == autodiff.__name__ and not name.startswith("_")
    }
    assert public - names == set(), "public autodiff functions the README does not name"


def _subcommands() -> dict[str, bool]:
    """Each subcommand of the ``ibimpute`` parser -> whether it takes ``--config``."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: any("--config" in a.option_strings for a in p._actions)
        for name, p in sub.choices.items()
    }


def test_docs_name_exactly_the_cli_subcommands():
    commands = _subcommands()
    (paragraph,) = [p for p in cli.__doc__.split("\n\n") if p.startswith("Subcommands:")]
    assert re.findall(r"``([a-z][a-z-]*)``", paragraph) == list(commands)
    quickstart = re.findall(r"^ibimpute ([a-z-]+)", _block("## Quickstart", "sh"), re.M)
    assert set(quickstart) == set(commands)
    # the artifact table lists the files a --config command writes to output_dir;
    # a "written by" cell is one subcommand, or a phrase in words
    writers = re.findall(r"^\| `[^`]+` \| ([^|]+) \|", _section("### Artifacts"), re.M)
    named = {w.strip() for w in writers if re.fullmatch(r"[a-z-]+", w.strip())}
    assert named == {name for name, takes_config in commands.items() if takes_config}
