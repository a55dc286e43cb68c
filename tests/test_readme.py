import contextlib
import dataclasses
import io
import re
from pathlib import Path

from pwafit import FitConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def test_library_quick_start_runs():
    [code] = re.findall(r"```python\n(.*?)```", section("Library quick start"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().count("\n") >= 3


def test_readme_lists_fit_config_fields_and_defaults():
    listed = re.findall(r"^- `(\w+)` \(([^)]+)\):", section("Library quick start"), re.M)
    fields = dataclasses.fields(FitConfig)
    assert [name for name, _ in listed] == [f.name for f in fields]
    assert [float(default) for _, default in listed] == [f.default for f in fields]
