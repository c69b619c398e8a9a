"""Session settings shared by the test modules."""

import pytest


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    # hypothesis caches the constants it reads from the package's source in
    # its home directory, ./.hypothesis unless set; keep it in the session's
    # temporary directory with every other file the tests write
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # a dev dependency: test_input_fuzz.py skips without it
        return
    set_hypothesis_home_dir(config._tmp_path_factory.getbasetemp() / "hypothesis")
