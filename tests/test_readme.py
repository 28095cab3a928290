"""The README's commands and Library example run against this checkout, which they document."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from bytecheck import readme_command_lines  # noqa: E402  (one extractor, shared with the byte check)


def _library_section() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs_against_src():
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    # after the example, report any public name that does not resolve
    code += (
        "\nimport belllab\n"
        "print(belllab.__file__)\n"
        "print(sorted(n for n in belllab.__all__ if not hasattr(belllab, n)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert done.returncode == 0, done.stderr
    chsh_lhs, psd_rank, lhv_violated, df_margin, module_file, missing = done.stdout.splitlines()
    assert abs(float(chsh_lhs) - 2.0 * 2.0**0.5) < 1e-12
    assert psd_rank.split()[0] in ("True", "False")
    assert lhv_violated == "False"
    assert abs(float(df_margin) - 12.0) < 1e-9
    assert Path(module_file).resolve().is_relative_to(ROOT / "src")
    assert missing == "[]"


def test_readme_library_section_lists_every_public_name():
    import belllab

    section = _library_section()
    for name in belllab.__all__:
        assert f"`{name}`" in section, name


def test_readme_command_lines_run_against_src(capsys, monkeypatch, tmp_path):
    import belllab.cli as cli

    assert Path(cli.__file__).resolve().is_relative_to(ROOT / "src")
    # ghz.json is the README's ghz scenario
    readme = (ROOT / "README.md").read_text()
    (tmp_path / "ghz.json").write_text(re.search(r'^\{"kind": "ghz".*\}$', readme, re.M).group(0))
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines(ROOT / "README.md")
    # a synopsis with [optional] parts is not a command: only evaluate's is one
    commands = [line for line in lines if "[" not in line]
    assert [line.split()[1] for line in lines if line not in commands] == ["evaluate"]
    assert len(commands) == 6
    for command in commands:
        code = cli.main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), command
        if "sweep" in command and "--format json" not in command:
            header, *rows = csv.reader(out.splitlines())
            assert header == ["coord", "lhs", "rhs", "margin"], command
            assert rows, command
            for row in rows:
                assert len([float(value) for value in row]) == 4, command
        else:
            assert isinstance(json.loads(out), dict), command
