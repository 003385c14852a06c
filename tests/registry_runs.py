"""Each ``avmae.verify`` registry entry, run at most once per test process.

The two registries are the one home for every check and its bound. The
acceptance suite reports every entry, and some entries are also reported by
the test next to the code they cover; those reports share the one run cached
here, so each entry costs its run time once per tier-1 run.
"""

import functools
import time

from avmae import verify


@functools.cache
def property_result(name: str) -> tuple[bool, str]:
    """``(passed, detail)`` of ``PROPERTY_CHECKS[name]``."""
    return verify.PROPERTY_CHECKS[name]()


@functools.cache
def grad_check(name: str):
    """The ``GRAD_CHECKS[name]`` report at registry settings, and its seconds."""
    start = time.monotonic()
    report = verify.run_grad_check(name)
    return report, time.monotonic() - start


def assert_grad_check(name: str, tolerance: float):
    """The entry passes at a tolerance no looser than ``tolerance``."""
    report, _ = grad_check(name)
    assert report.tolerance <= tolerance
    assert report.passed, "\n".join(report.lines())
