import importlib.util
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """The compiled kernel module.

    An importable build is used as it is.  Otherwise the committed
    `_speedups.c` is compiled with gcc into a temporary directory (the
    package directory is never written) and loaded as
    `placeforge._kernels._speedups`; the package's own kernel dispatch is
    left as it was.
    """
    try:
        from placeforge._kernels import _speedups
        return _speedups
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found: the compiled kernels cannot be built")
    include = sysconfig.get_paths()["include"]
    if not (pathlib.Path(include) / "Python.h").exists():
        pytest.skip(f"Python.h not found in {include}: the compiled kernels cannot be built")
    import placeforge._kernels as kernels

    source = pathlib.Path(kernels.__file__).parent / "_speedups.c"
    target = tmp_path_factory.mktemp("speedups") / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    done = subprocess.run(
        [gcc, "-shared", "-fPIC", "-O2", f"-I{include}", str(source), "-o", str(target)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, "building _speedups.c failed:\n" + done.stdout[-2000:]
    spec = importlib.util.spec_from_file_location("placeforge._kernels._speedups", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
