import faulthandler
import os
import sys

import pytest


@pytest.fixture
def hang_watchdog(capsys):
    """Should closing the pool hang again, end the run after two minutes
    with every thread's traceback on the terminal's stderr."""
    with capsys.disabled():
        stderr = os.dup(sys.stderr.fileno())
    faulthandler.dump_traceback_later(120, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(stderr)
