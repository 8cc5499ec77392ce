"""The README's code runs as written: each `conmoe` command of its `sh`
blocks exits 0 through the CLI, in order, printing its one success line,
and its Python snippet runs; its list of overflow messages is the source's."""

import re
import shlex
from pathlib import Path

from conmoe.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text("utf-8")


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def conmoe_commands():
    """argv of every `conmoe` line, continuations joined, comments dropped."""
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["conmoe"]:
                commands.append(argv[1:])
    return commands


def test_cli_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = conmoe_commands()
    assert len(commands) == 10
    for argv in commands:
        assert main(argv) == 0, argv
        # a command that succeeds prints one line: the file (or prefix) it wrote
        assert capsys.readouterr().out == f"{argv[0]}: wrote {argv[argv.index('-o') + 1]}\n", argv


def test_python_snippet_runs():
    (snippet,) = blocks("python")
    exec(compile(snippet, "README.md", "exec"), {})


def test_overflow_messages_match_the_source():
    """The WHATs of README's `error: non-finite WHAT at layer L` list (the
    last backticked phrase of each `;`-separated entry) are exactly the
    ones src/conmoe passes to model.finite."""
    source = "".join(p.read_text("utf-8") for p in (ROOT / "src" / "conmoe").glob("*.py"))
    whats = set(re.findall(r'\bfinite\(.*, "([^"]+)", \w+\)', source))
    entries = re.search(r"WHAT is (.+?)\. ", " ".join(README.split())).group(1).split(";")
    assert whats == {re.findall(r"`([^`]+)`", entry)[-1] for entry in entries}
