"""A time limit per test: a test that runs past TEST_SECONDS_MAX (setup and
teardown included), or a module whose collection does, dumps the traceback
of every thread to stderr and ends the run with status 1, so a hang fails
the suite instead of stalling it.  A broken field product, for one, makes
the modulus search of `field_create` scan every candidate, which takes
hours.

The watchdog is `faulthandler`'s thread, not SIGALRM, so it leaves the
alarms of `oracles.deadline` alone and fires inside C code too.
"""

import faulthandler
import os
import sys

import pytest

# the slowest test takes about 2 s on a 2-vCPU host
TEST_SECONDS_MAX = 60

_stderr = None  # a copy of the real stderr, which test capture leaves alone


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_SECONDS_MAX, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    faulthandler.dump_traceback_later(TEST_SECONDS_MAX, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
