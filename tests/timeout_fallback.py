"""Per-test timeout without pytest-timeout: a stdlib fallback plugin.

The ``timeout`` ini key in pyproject.toml belongs to pytest-timeout.
Without that plugin pytest ignores the key ("Unknown config option"),
so one hung test -- a worker the harness hung on purpose that
supervision failed to reclaim, a deadlocked lock -- would hang the
whole run.  When the plugin is absent, this module registers the key
itself and arms :func:`faulthandler.dump_traceback_later` around each
test: a test that outlives the timeout dumps every thread's traceback
to stderr and ends the process with a non-zero exit code.

``tests/conftest.py`` loads it for the suite; ``-p timeout_fallback``
loads it anywhere ``tests/`` is importable.
"""

from __future__ import annotations

import faulthandler
import os
import sys
from typing import Generator

import pytest

_STDERR_FD = pytest.StashKey[int]()


def pytest_addoption(
    parser: pytest.Parser, pluginmanager: pytest.PytestPluginManager
) -> None:
    if pluginmanager.hasplugin("timeout"):
        return
    parser.addini(
        "timeout",
        "per-test timeout in seconds, 0 to disable (stdlib fallback for "
        "pytest-timeout: a timed-out test ends the run)",
        default="0",
    )
    parser.addini(
        "timeout_method",
        "accepted for pytest-timeout compatibility; the fallback always "
        "dumps tracebacks and exits",
        default="thread",
    )


def _timeout_s(config: pytest.Config) -> float:
    if config.pluginmanager.hasplugin("timeout"):
        return 0.0
    return float(config.getini("timeout") or 0)


def pytest_configure(config: pytest.Config) -> None:
    if _timeout_s(config) > 0:
        # Tests run with fd 2 captured; the traceback must reach the
        # real stderr, so keep a copy of it from before capturing.
        try:
            fd = sys.stderr.fileno()
        except (AttributeError, ValueError):
            assert sys.__stderr__ is not None
            fd = sys.__stderr__.fileno()
        config.stash[_STDERR_FD] = os.dup(fd)


def pytest_unconfigure(config: pytest.Config) -> None:
    fd = config.stash.get(_STDERR_FD, None)
    if fd is not None:
        os.close(fd)
        del config.stash[_STDERR_FD]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(
    item: pytest.Item, nextitem: object
) -> Generator[None, None, None]:
    timeout = _timeout_s(item.config)
    if timeout > 0:
        faulthandler.dump_traceback_later(
            timeout, exit=True, file=item.config.stash[_STDERR_FD]
        )
    try:
        yield
    finally:
        if timeout > 0:
            faulthandler.cancel_dump_traceback_later()
