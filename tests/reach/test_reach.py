"""``tools.reach`` on a tiny package: which calls it records (in the
driver, in a forked child, in a spawned one), which functions it lists,
and that two runs of one tree list the same."""

from __future__ import annotations

import textwrap

import pytest

from tools.reach import unreached

PACKAGE = '''
import functools


def plain():
    return 1


def logged(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


class Shape:
    @logged
    def area(self):
        return 2

    @staticmethod
    def unused_helper():
        return 3


def in_forked_child():
    return 4


def in_spawned_child():
    return 5


def never():
    return 6
'''

DRIVER = '''
import multiprocessing
import os

from fixture import Shape, in_forked_child, in_spawned_child, plain

if __name__ == "__main__":
    plain()
    Shape().area()
    pid = os.fork()
    if pid == 0:
        in_forked_child()
        os._exit(0)
    os.waitpid(pid, 0)
    child = multiprocessing.get_context("spawn").Process(target=in_spawned_child)
    child.start()
    child.join()
'''


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "fixture.py").write_text(textwrap.dedent(PACKAGE))
    (tmp_path / "driver.py").write_text(textwrap.dedent(DRIVER))
    return tmp_path


def test_lists_exactly_the_functions_no_process_called(tree):
    drivers = [([str(tree / "driver.py")], {})]
    first = unreached(tree, tree / "src", drivers)
    # plain, the decorated method (keyed at its decorator's line), the
    # decorator's wrapper and both children's functions were all called
    assert first == ["src/fixture.py:Shape.unused_helper",
                     "src/fixture.py:never"]
    assert unreached(tree, tree / "src", drivers) == first


def test_a_failing_driver_is_an_error(tree):
    (tree / "driver.py").write_text("raise SystemExit(3)\n")
    with pytest.raises(RuntimeError, match="exited 3"):
        unreached(tree, tree / "src", [([str(tree / "driver.py")], {})])
