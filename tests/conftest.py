import importlib.machinery
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings


def _build_kernel():
    """Build chainsteg._kernel in place (python setup.py build_ext --inplace)
    when it is missing or older than _kernel.c or setup.py, and a C compiler
    is on PATH, so the tests run against the current kernel. This must
    happen before chainsteg is imported: the backend is chosen at import
    time."""
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "chainsteg"
    built = next((path for suffix in importlib.machinery.EXTENSION_SUFFIXES
                  if (path := package / f"_kernel{suffix}").exists()), None)
    newest_source = max(path.stat().st_mtime
                        for path in (package / "_kernel.c", root / "setup.py"))
    if built is not None and built.stat().st_mtime >= newest_source:
        return
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        return
    # --force: setuptools would skip the build when only setup.py changed
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"building chainsteg._kernel failed:\n{proc.stdout}{proc.stderr}")


_build_kernel()

from chainsteg import ChannelConfig, KeyMaterial, Mode  # noqa: E402
from chainsteg.session import SessionState  # noqa: E402

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


@pytest.fixture(scope="session")
def km():
    return KeyMaterial.generate(random.Random(0xBEEF))


@pytest.fixture()
def ordered_cfg():
    return ChannelConfig(n=3, m=4, mode=Mode.ORDERED)


@pytest.fixture()
def permuted_cfg():
    return ChannelConfig(n=4, m=6, mode=Mode.PERMUTED)


@pytest.fixture()
def funded(km, ordered_cfg):
    """A sender session with a freshly funded chain."""
    state = SessionState(km, ordered_cfg, seed=11)
    ledger = state.genesis_ledger()
    return state, ledger


def make_session(km, cfg, seed=11, fund=True):
    state = SessionState(km, cfg, seed=seed)
    ledger = state.genesis_ledger() if fund else None
    return state, ledger
