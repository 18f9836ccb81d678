"""Shared fixtures."""

import pytest

from repro.memory.controller import MemoryController


_ORIGINAL_INIT = MemoryController.__init__


def _init_without_memo(self, *args, **kwargs):
    _ORIGINAL_INIT(self, *args, **kwargs)
    self._no_refresh = False


@pytest.fixture(scope="session")
def exact_polls():
    """``exact_polls(fn, *args, **kwargs)`` calls ``fn`` with every
    memory controller it builds on the exact per-tick poll path.

    NVM controllers normally memoize failed scans, cache the earliest
    bank-free cycle and jump over chains of failing polls (all three
    are sound only for refresh-free banks).  Inside the call all are
    off: every poll of the chain runs, rescans its queues and
    recomputes the bank horizon.  That is the reference the shortcut
    path must reproduce bit for bit."""

    def exact(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MemoryController, "__init__", _init_without_memo)
            return fn(*args, **kwargs)

    return exact
