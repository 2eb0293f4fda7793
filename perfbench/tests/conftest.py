"""Self-tests of the benchmark (not part of the repo's tier-1 suite):

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

The test process makes itself a child subreaper, so a descendant of a
benchmark run that outlives it is re-parented here and shows up in
``descendants()``.
"""

import glob

import pytest

from perfbench.session import RAY_TEMP_PREFIX, descendants

from .helpers import become_subreaper


@pytest.fixture(autouse=True)
def no_stray_children():
    become_subreaper()
    assert not descendants(), "test started with stray child processes"
    ray_dirs = set(glob.glob(f"/tmp/{RAY_TEMP_PREFIX}*"))
    yield
    assert set(glob.glob(f"/tmp/{RAY_TEMP_PREFIX}*")) <= ray_dirs, "Ray temp dir left behind"
