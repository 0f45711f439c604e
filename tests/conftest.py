import faulthandler
import os
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: seconds one test may run before the whole run ends with every thread's
#: traceback: a hung test (say, a search that never backtracks) fails the
#: run instead of stalling it.  Over ten times the slowest test of a
#: ``--durations=15`` run, which is 8-27 s on a 2-core host.
HANG_LIMIT = 300

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the real stderr, taken while output is not captured: the
    # traceback must outlive the capture that ends with the process
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _bounded_runtime(request):
    faulthandler.dump_traceback_later(HANG_LIMIT, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
