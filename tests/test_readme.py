"""The README's library quick start, module table and commands match the current API."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import deepesn as de
from deepesn import cli
from deepesn.mso import _signal_and_targets

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_fits_next_step(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    score, check = capsys.readouterr().out.splitlines()

    # the protocol's own next-step targets, fit and scored on the same states
    task, reservoir = namespace["task"], namespace["reservoir"]
    u, targets = _signal_and_targets(task)
    states = de.run(reservoir, u).reshape(len(u), -1)
    split = task.split
    fit = de.fit_ridge(states[split.fit_slice], targets[split.fit_slice], 1e-8)
    expected = de.nrmse(de.predict(fit, states[split.test_slice])[:, 0],
                        targets[split.test_slice])
    assert float(score) == expected
    assert check.split()[0] == "True"


def test_public_names_resolve():
    assert len(set(de.__all__)) == len(de.__all__)
    missing = [name for name in de.__all__ if not hasattr(de, name)]
    assert missing == []


def test_readme_table_names_exist():
    # every name in "What's in the box" exists in its module, so a dropped
    # export cannot linger in the docs, and every export is in the table, so
    # an export nobody documents cannot linger either
    section = README.read_text().split("## What's in the box", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(deepesn\.\w+)` *\| (.*) \|$", section, re.M)
    assert len(rows) == 7
    documented = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = re.findall(r"`([\w-]+)`", contents)
        if module_name == "deepesn.cli":  # the command and its subcommands
            assert names == ["deepesn", *module._COMMANDS]
            continue
        assert [n for n in names if not hasattr(module, n)] == [], module_name
        documented += names
    assert sorted(documented) == sorted(de.__all__)


def test_readme_commands_parse():
    # every deepesn command in the README's sh blocks parses (nothing runs),
    # so a removed flag cannot linger in the docs
    parser, _ = cli._build_parser()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["deepesn"]:
                commands.append(words[1:])
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: deepesn {shlex.join(argv)}")
