"""Fixtures shared by the test modules."""

from __future__ import annotations

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises :class:`TimeoutError` in the body once
    it has run for ``seconds``, so a hang fails its test instead of the suite."""

    @contextlib.contextmanager
    def arm(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return arm
