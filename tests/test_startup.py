"""Start-up cost: what each command and each first importer loads.

``import jciscan``, the parser, ``--help`` and every flag rejection load
neither numpy nor a compute module; ``convert`` and ``report`` load no
scanner.  ``jciscan.scan`` names the function whichever code loads the
``jciscan.scan`` submodule first.  Each case runs in a fresh interpreter,
since a module loaded once stays loaded for the rest of a process.
"""

import os
import subprocess
import sys

import pytest

import jciscan

COMPUTE_MODULES = {"jciscan.cumulants", "jciscan.dataio", "jciscan.scan", "jciscan.simulate"}
SCANNER_MODULES = {"jciscan.cumulants", "jciscan.scan", "jciscan.simulate"}

CSV = "x1,x2,x3,y\n1,2,3,0.5\n2,1,3,1.5\n3,3,1,2.5\n1,1,2,0.1\n2,3,2,4\n"
GENOTYPE_CSV = "a,b,c\n1,2,3\n2,3,3\n3,1,2\n1,1,1\n2,2,3\n"
DUMP = "snp1,snp2,chrom1,chrom2,r_hat\na,b,1,1,0.5\na,c,1,2,0.25\nb,c,2,2,0.75\n"


def _env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jciscan.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def imported_modules(*args, code=0, cwd=None):
    """The modules ``python -X importtime -m jciscan ARGS`` imports, after
    checking that it exits with ``code``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "jciscan", *args], env=_env(),
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr[-2000:]
    # -X importtime writes one "import time: self | cumulative | name" line per module.
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args", [
    ["--help"],
    ["scan", "--help"],
    ["scan", "d.csv", "--response-column", "y", "--top-k", "1", "--pair-range", "5"],
])
def test_parser_help_and_flag_errors_load_no_compute_module(args):
    imported = imported_modules(*args, code=2 if "--pair-range" in args else 0)
    assert "jciscan.cli" in imported
    assert "numpy" not in imported
    assert imported.isdisjoint(COMPUTE_MODULES)
    if args == ["--help"]:
        assert {m for m in imported if m.startswith("jciscan")} == {"jciscan", "jciscan.cli", "jciscan.errors"}


def test_convert_and_report_load_no_scanner(tmp_path):
    (tmp_path / "g.csv").write_text(GENOTYPE_CSV)
    (tmp_path / "dump.csv").write_text(DUMP)
    for args in (
        ["convert", "--from", "csv", "--to", "packed", "g.csv", "g.jcg"],
        ["convert", "--from", "packed", "--to", "csv", "g.jcg", "back.csv"],
        ["report", "--scores", "dump.csv", "--out-histogram", "h.csv", "--out-groups", "groups.csv"],
    ):
        imported = imported_modules(*args, cwd=tmp_path)
        assert "jciscan.dataio" in imported
        assert imported.isdisjoint(SCANNER_MODULES), args
    assert (tmp_path / "back.csv").read_text() == GENOTYPE_CSV


_FIRST_IMPORTERS = {
    "import jciscan.scan": "import jciscan.scan",
    "import jciscan.simulate": "import jciscan.simulate",
    "cli.main scan": (
        "import jciscan.cli\n"
        "assert jciscan.cli.main(['scan', 'd.csv', '--response-column', 'y', '--top-k', '2',"
        " '--out', 'top.csv']) == 0"
    ),
    "import jciscan": (
        "import jciscan\n"
        "assert 'numpy' not in sys.modules and 'jciscan.scan' not in sys.modules"
    ),
}

_SCAN_NAMES = """
import importlib
import jciscan
from jciscan import scan
module = importlib.import_module("jciscan.scan")
assert callable(scan) and not isinstance(scan, type(sys)), scan
assert scan is sys.modules["jciscan.scan"].scan is jciscan.scan
assert module is sys.modules["jciscan.scan"] and module.__name__ == "jciscan.scan"
"""


@pytest.mark.parametrize("first", sorted(_FIRST_IMPORTERS))
def test_jciscan_scan_is_the_function_whichever_code_imports_first(first, tmp_path):
    (tmp_path / "d.csv").write_text(CSV)
    source = "import sys\n" + _FIRST_IMPORTERS[first] + "\n" + _SCAN_NAMES
    proc = subprocess.run([sys.executable, "-c", source], env=_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
