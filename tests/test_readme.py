"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

import deepesn as de
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
    states = de.run(reservoir, u).concatenated
    split = task.split
    fit = de.fit_ridge(states[split.fit_slice], targets[split.fit_slice], 1e-8)
    expected = de.nrmse(de.predict(fit, states[split.test_slice])[:, 0],
                        targets[split.test_slice])
    assert float(score) == expected
    assert check.split()[0] == "True"
