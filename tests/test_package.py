import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pulselab
from pulselab import adjustment, recoil, spectral, wavepacket

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("adjustment", "recoil", "spectral", "wavepacket")


def fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(pulselab.__file__))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_exports_every_module_export():
    modules = (adjustment, recoil, spectral, wavepacket)
    assert sorted(pulselab.__all__) == sorted(name for m in modules for name in m.__all__)
    for name in pulselab.__all__:
        assert getattr(pulselab, name) is next(getattr(m, name) for m in modules if name in m.__all__)


def test_import_and_adjust_load_no_numpy():
    # Counted against the modules loaded before the import, which a site hook may add to.
    code = """
        import contextlib, io, json, sys
        heavy = ("numpy", "dataclasses", "inspect", "csv")
        before = {m for m in heavy if m in sys.modules}
        def added():
            return sorted(m for m in heavy if m in sys.modules and m not in before)
        def pulselab_modules():
            return sorted(m for m in sys.modules if m.startswith("pulselab"))
        import pulselab, pulselab.cli
        loaded = [added()]
        runs = {"adjust": ["--e", "2", "--de", "1", "--t", "1"], "width": ["--omega0", "10", "--tau", "2"]}
        for command, flags in runs.items():
            for fmt in ("json", "csv"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = pulselab.cli.main([command, *flags, "--format", fmt])
                loaded.append([added(), code])
            loaded.append(pulselab_modules())
        print(json.dumps(loaded))
    """
    loaded = fresh(code)
    assert loaded == [
        [],
        [[], 0], [[], 0], ["pulselab", "pulselab.adjustment", "pulselab.cli"],
        [[], 0], [[], 0], ["pulselab", "pulselab.adjustment", "pulselab.cli", "pulselab.wavepacket"],
    ]


def test_pulse_import_loads_only_wavepacket():
    code = """
        import json, sys
        heavy = ("numpy", "dataclasses")
        before = {m for m in heavy if m in sys.modules}
        from pulselab import Pulse, first_zero_halfwidth
        loaded = [sorted(m for m in heavy if m in sys.modules and m not in before)]
        loaded.append(sorted(m for m in sys.modules if m.startswith("pulselab")))
        from pulselab import fourier_intensity
        loaded.append(fourier_intensity.__module__)
        print(json.dumps(loaded))
    """
    assert fresh(code) == [[], ["pulselab", "pulselab.adjustment", "pulselab.wavepacket"], "pulselab.spectral"]


def test_sampled_spectrum_loads_no_dataclasses(tmp_path):
    # Every record is a NamedTuple: neither the array records' module nor a run that reads a waveform needs dataclasses.
    path = tmp_path / "w.csv"
    path.write_text("t,re,im\n" + "".join(f"{k / 128!r},{math.cos(10 * k / 128)!r},{math.sin(10 * k / 128)!r}\n"
                                          for k in range(257)))
    code = """
        import contextlib, io, json, sys
        before = "dataclasses" in sys.modules
        def added():
            return "dataclasses" in sys.modules and not before
        from pulselab import fourier_intensity
        loaded = [added()]
        import pulselab.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = pulselab.cli.main(["spectrum", "--input", %r, "--omega-min", "4", "--omega-max", "16",
                                      "--points", "201"])
        loaded += [added(), code]
        print(json.dumps(loaded))
    """ % (str(path),)
    assert fresh(code) == [False, False, 0]


def test_dir_lists_every_export_and_module_before_any_is_loaded():
    names = fresh("import json, pulselab; print(json.dumps(dir(pulselab)))")
    assert len(pulselab.__all__) == 30
    assert set(pulselab.__all__) | set(MODULES) <= set(names)


def test_star_import_binds_each_export_to_its_home_object():
    code = """
        import json, pulselab
        namespace = {}
        exec("from pulselab import *", namespace)
        del namespace["__builtins__"]
        home = {name: m for m in (getattr(pulselab, m) for m in %r) for name in m.__all__}
        print(json.dumps({name: value is getattr(home[name], name) for name, value in namespace.items()}))
    """ % (MODULES,)
    same = fresh(code)
    assert sorted(same) == sorted(pulselab.__all__)
    assert all(same.values())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'pulselab' has no attribute 'no_such_name'"):
        pulselab.no_such_name  # noqa: B018
    assert not hasattr(pulselab, "no_such_name")


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
