"""Every golden document in tests/golden, rewritten byte for byte.

Each case in tests/golden/manifest.json is run again and each document it
writes (stdout, ``--output``, ``--dump``) is compared with its golden copy.
The bytes depend on numpy's SIMD ``sin``/``exp``, so on a host whose numpy
version, machine or SIMD dispatch differs from the manifest's, the numbers
are compared within ``ULPS`` instead, and all other text exactly.  The files
come only from tests/golden/regenerate.py; see its docstring.
"""

import json
import math
import re
import shutil
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(GOLDEN))
from regenerate import host, run_case  # noqa: E402

# A number's allowed distance from its golden value, in ulps of the largest
# magnitude in the document: sampled spectra near a null are rounding noise
# of the peak.  Moving every waveform amplitude by up to 2 ulps moved no
# number of the sampled documents by more than 0.3 of these ulps.
ULPS = 64
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def close(text: str, golden: str) -> bool:
    """True when ``text`` is ``golden`` with each number within ``ULPS``."""
    if _NUMBER.sub("#", text) != _NUMBER.sub("#", golden):
        return False
    got, want = ([float(x) for x in _NUMBER.findall(t)] for t in (text, golden))
    scale = max(map(abs, want), default=0.0)
    return all(abs(a - b) <= ULPS * math.ulp(max(abs(a), abs(b), scale)) for a, b in zip(got, want))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    for name in MANIFEST["inputs"]:
        shutil.copy(GOLDEN / name, path)
    return path


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=[c["name"] for c in MANIFEST["cases"]])
def test_documents_match_golden(case, workdir):
    code, stdout, stderr, written = run_case(case["argv"], str(workdir))
    assert (code, stderr) == (0, "")
    files = {"-": stdout} if stdout else {}
    files.update(written)
    assert sorted(files) == sorted(case["files"])
    for produced, golden_name in case["files"].items():
        golden = (GOLDEN / golden_name).read_text(encoding="utf-8")
        if host() == MANIFEST["host"]:
            assert files[produced] == golden, golden_name
        else:
            assert close(files[produced], golden), golden_name


def test_close_allows_rounding_and_nothing_more():
    golden = '{"a": [4.0, 1e-17, 12]}'
    assert close('{"a": [4.000000000000002, -3e-15, 12]}', golden)
    assert not close('{"a": [4.0001, 1e-17, 12]}', golden)
    assert not close('{"a": [4.0, 1e-17, 13]}', golden)
    assert not close('{"b": [4.0, 1e-17, 12]}', golden)
