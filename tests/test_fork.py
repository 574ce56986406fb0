import os
import sys

import pytest

from polarlat._fork import fork_map
from polarlat.errors import GridError, MinimizationError, PolarlatError

linux_only = pytest.mark.skipif(sys.platform != "linux",
                                reason="fork_map forks on Linux only")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes", [1, 2, 3, 7])
def test_results_in_item_order(processes):
    assert fork_map(lambda x: x * x, range(5), processes) == [0, 1, 4, 9, 16]
    assert fork_map(lambda x: x, [], processes) == []


@linux_only
def test_each_share_in_its_own_process():
    pids = fork_map(lambda x: os.getpid(), range(6), 3)
    assert pids[0::3] == [os.getpid()] * 2
    assert len(set(pids)) == 3 and pids[1::3] == [pids[1]] * 2
    _assert_no_child()


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_child_exception_reraised_with_attributes(processes):
    # items 1 and 4 fail; item 1 runs in a child whenever there is one, and a
    # serial run raises it first
    def solve(i):
        if i == 1:
            raise MinimizationError("runaway")
        if i == 4:
            raise GridError("later", failures=[(0.1, -2.7, "x")])
        return i

    with pytest.raises(MinimizationError, match="runaway"):
        fork_map(solve, range(6), processes)
    with pytest.raises(GridError) as info:
        fork_map(solve, [0, 2, 3, 4, 5], processes)
    assert info.value.failures == ((0.1, -2.7, "x"),)
    _assert_no_child()


@linux_only
def test_dead_child_is_an_error_and_reaped():
    def solve(i):
        if os.getpid() != parent:
            os._exit(9)
        return i

    parent = os.getpid()
    with pytest.raises(PolarlatError, match="exit status 9"):
        fork_map(solve, range(4), 2)
    _assert_no_child()


@linux_only
def test_children_killed_when_the_caller_fails():
    # the caller's own share fails before it reads any child's result
    def solve(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        while True:
            pass

    parent = os.getpid()
    with pytest.raises(KeyboardInterrupt):
        fork_map(solve, range(3), 3)
    _assert_no_child()
