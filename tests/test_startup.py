"""Start-up: the package resolves its names on every access, the parser
loads no library module, and only the commands that compute with numpy
import it."""
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import contamruns

# the directory holding the contamruns under test: src/ in a checkout,
# site-packages for an installed package
PACKAGE_DIR = Path(contamruns.__file__).resolve().parent.parent

THIRDS = ["--p", "1/3", "--q1", "1/3", "--q2", "1/3"]

# run in a fresh interpreter: this test process has imported numpy long since
PROBE = f"""
import sys
sys.path.insert(0, {str(PACKAGE_DIR)!r})
from contamruns import cli

NUMPY_LAYERS = {{"contamruns.montecarlo", "contamruns.oracle"}}

cli.build_parser()
assert not {{"contamruns.analytic", *NUMPY_LAYERS}} & set(sys.modules), "build_parser"
assert "numpy" not in sys.modules, "build_parser"
assert cli.main(["--json", "analytic", "pA1", *{THIRDS!r}, "--m", "3"]) == 0
assert cli.main(["--json", "analytic", "bounds", *{THIRDS!r}, "--m", "10", "--N", "10000"]) == 0
assert not NUMPY_LAYERS & set(sys.modules), "analytic"
assert "numpy" not in sys.modules, "analytic"
assert cli.main(["--json", sys.argv[1], *sys.argv[2:]]) == 0
assert "numpy" in sys.modules, sys.argv[1]
"""


def _probe(tmp_path, *argv):
    return subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def test_analytic_commands_never_import_numpy(tmp_path):
    csv = tmp_path / "emp.csv"
    csv.write_text("# mode=hitting\nvalue,count,ecdf\n0.5,1,0.5\n2.0,1,1.0\n", encoding="utf-8")
    for argv in (("oracle", "longest-cdf", *THIRDS, "--N", "5", "--m", "3"),
                 ("compare", str(csv))):
        proc = _probe(tmp_path, *argv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and '"pA1": 0.48148148148148145' in lines[0]


def test_montecarlo_import_leaves_numpy_random_unloaded():
    # the generators' seed source loads numpy.random on the first draw
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE_DIR)!r}); "
             "import contamruns.montecarlo; "
             "assert 'numpy.random' not in sys.modules, sorted(sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_submodule_is_reached_without_importing_it_first():
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE_DIR)!r}); "
             "import contamruns; assert 'contamruns.oracle' not in sys.modules; "
             "module = contamruns.oracle; "
             "assert module is sys.modules['contamruns.oracle'], module; "
             "assert module.dp_longest_cdf is contamruns.dp_longest_cdf")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_names_read_their_submodule_on_every_access(monkeypatch, capsys):
    from contamruns import cli
    contamruns.dp_longest_cdf  # noqa: B018  a first read caches nothing

    def patched(*args, **kwargs):
        return Fraction(1, 7)

    monkeypatch.setattr(contamruns.oracle, "dp_longest_cdf", patched)
    assert contamruns.dp_longest_cdf is patched
    assert "dp_longest_cdf" not in vars(contamruns)
    assert cli.main(["--json", "oracle", "longest-cdf", *THIRDS, "--N", "5", "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"exact": "1/7", "value": 1 / 7}


def test_every_export_is_its_submodules_object():
    for module, names in contamruns._EXPORTS.items():
        source = getattr(contamruns, module)
        assert inspect.ismodule(source) and source.__name__ == f"contamruns.{module}"
        for name in names:
            assert getattr(contamruns, name) is getattr(source, name)
    namespace = {}
    exec("from contamruns import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(contamruns.__all__)


def test_dir_covers_the_exports_and_unknown_names_raise():
    assert set(contamruns.__all__) <= set(dir(contamruns))
    with pytest.raises(AttributeError, match="no_such_name"):
        contamruns.no_such_name  # noqa: B018
    assert not hasattr(contamruns, "DEFAULT_BUDGET")


def test_the_dp_budget_default_is_one_constant():
    from contamruns import model, oracle
    assert oracle.DEFAULT_BUDGET is model.DEFAULT_BUDGET
    assert inspect.signature(oracle.dp_longest_cdf).parameters["budget"].default == 10 ** 9
