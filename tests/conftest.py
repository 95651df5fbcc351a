import time

import pytest

from mck import morse_graph as mg
from mck.complex_builder import build_complex, enumerate_top_classes

Q2_SPLITS = [(3, 1), (2, 2), (1, 3)]
Q3_SPLITS = [(4, 1), (3, 2), (2, 3), (1, 4)]


def fig8(marked_minima=True, marked_max=True):
    """Figure-eight: one saddle, two min-disks, one max-disk."""
    atom = mg.Atom.of([1], [((1, 0), (1, 3)), ((1, 2), (1, 1))])
    caps = (
        mg.Cap(circle=(0, 0), kind="min", label=1, marked=marked_minima, fixed=False),
        mg.Cap(circle=(0, 1), kind="min", label=2, marked=marked_minima, fixed=False),
        mg.Cap(circle=(0, 2), kind="max", label=1, marked=marked_max, fixed=False),
    )
    return mg.LMG(q=1, p=2, r=1, levels=((0,),), atoms=(atom,), caps=caps,
                  cylinders=(), marked_saddles=frozenset({1}),
                  fixed_saddles=frozenset())


def two_level_q2():
    """Two one-saddle atoms at two levels joined by one cylinder; p = r = 2."""
    atom0 = mg.Atom.of([1], [((1, 0), (1, 3)), ((1, 2), (1, 1))])  # 2 lower, 1 upper
    atom1 = mg.Atom.of([2], [((2, 0), (2, 1)), ((2, 2), (2, 3))])  # 1 lower, 2 upper
    caps = (
        mg.Cap(circle=(0, 0), kind="min", label=1, marked=True, fixed=False),
        mg.Cap(circle=(0, 1), kind="min", label=2, marked=True, fixed=False),
        mg.Cap(circle=(1, 1), kind="max", label=1, marked=True, fixed=False),
        mg.Cap(circle=(1, 2), kind="max", label=2, marked=True, fixed=False),
    )
    return mg.LMG(q=2, p=2, r=2, levels=((0,), (1,)), atoms=(atom0, atom1),
                  caps=caps, cylinders=(((0, 2), (1, 0)),),
                  marked_saddles=frozenset({1, 2}), fixed_saddles=frozenset())


def group_of(g):
    """The automorphism group of `g`, read off its one framing pass."""
    return mg.automorphisms(g, mg.canonicalize(g)[1])


@pytest.fixture(scope="session")
def fig8_lmg():
    return fig8()


@pytest.fixture(scope="session")
def q2_two_level():
    return two_level_q2()


@pytest.fixture(scope="session")
def complex_q1():
    return build_complex(enumerate_top_classes(2, 1, 1))


@pytest.fixture(scope="session")
def build_times():
    return {}


@pytest.fixture(scope="session")
def complexes_q2(build_times):
    start = time.monotonic()
    out = {(p, r): build_complex(enumerate_top_classes(p, 2, r))
           for p, r in Q2_SPLITS}
    build_times["q2"] = time.monotonic() - start
    return out


@pytest.fixture(scope="session")
def complexes_q3(build_times):
    start = time.monotonic()
    out = {(p, r): build_complex(enumerate_top_classes(p, 3, r))
           for p, r in Q3_SPLITS}
    build_times["q3"] = time.monotonic() - start
    return out
