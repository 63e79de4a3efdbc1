import re
from pathlib import Path

import pytest

import pulselab
from pulselab import adjustment, recoil, spectral, wavepacket

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_exports_every_module_export():
    modules = (adjustment, recoil, spectral, wavepacket)
    assert sorted(pulselab.__all__) == sorted(name for m in modules for name in m.__all__)
    for name in pulselab.__all__:
        assert getattr(pulselab, name) is next(getattr(m, name) for m in modules if name in m.__all__)


def test_readme_library_api_lists_every_export():
    _, heading, rest = README.read_text(encoding="utf-8").partition("\n## Library API\n")
    assert heading, "README.md has no '## Library API' section"
    section = rest.split("\n## ", 1)[0]
    # One bullet per name: "- `name`" or "- `name(...)`".
    documented = re.findall(r"^- `(\w+)", section, re.MULTILINE)
    assert sorted(documented) == sorted(pulselab.__all__)


def test_version_is_stated_once():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "pulselab.__version__"}
