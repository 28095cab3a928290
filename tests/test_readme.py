"""The README's Library section runs against this checkout and names the whole public surface."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
