"""verify against the plain per-edge reference loop on generated labelings."""

import importlib
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from iasi import Graph, Labeling, SetLabel, check_strong_criterion, verify  # noqa: E402
from helpers import reference_verify  # noqa: E402

_edge_pass = importlib.import_module("iasi.verify")._edge_pass


@st.composite
def labeled_graphs(draw):
    """A graph on 2-7 vertices with no isolated vertex, and labels from a
    small universe drawn from a small pool, so edge labels often repeat or
    share their (min, max, size) key."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs))))
    edges |= {(v, v + 1) if v + 1 < n else (v - 1, v) for v in range(n) if not any(v in e for e in edges)}
    universe = draw(st.sampled_from((4, 8, 30)))
    label = st.frozensets(st.integers(0, universe), min_size=1, max_size=4)
    pool = draw(st.lists(label, min_size=1, max_size=n + 1))
    labels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return Graph(n, edges), Labeling({v: SetLabel(a) for v, a in enumerate(labels)})


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(labeled_graphs())
def test_verify_matches_the_reference_loop(case):
    g, f = case
    want = reference_verify(g, f)
    assert json.dumps(verify(g, f).as_dict()) == json.dumps(want)
    assert check_strong_criterion(g, f) == want["is_strong"]


WIDE = 2**70


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(labeled_graphs(), st.lists(st.sampled_from((0, WIDE)), min_size=7, max_size=7))
def test_verify_matches_the_reference_loop_past_a_machine_word(case, shifts):
    # some or all labels moved up by 2**70, so each packed edge key spans
    # several machine words and its fields sit far apart or close together
    g, f = case
    wide = Labeling({v: f[v].shift(shifts[v]) for v in g.vertices()})
    want = reference_verify(g, wide)
    assert json.dumps(verify(g, wide).as_dict()) == json.dumps(want)
    assert check_strong_criterion(g, wide) == want["is_strong"]


# verify reduces the sums of labels with an element of 2**61 or more
# modulo the prime P = 2**61 - 1.  Moved up by 2**62 - 2 - t, which is
# P - t modulo P, an element below t has a residue just under P and any
# other one a small residue, so residue sums of equal edge labels can
# differ by P.
@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(labeled_graphs(), st.integers(1, 8), st.lists(st.booleans(), min_size=7, max_size=7))
def test_verify_matches_the_reference_loop_where_residues_wrap(case, t, moved):
    g, f = case
    wide = Labeling({v: f[v].shift((2**62 - 2 - t) * moved[v]) for v in g.vertices()})
    assert json.dumps(verify(g, wide).as_dict()) == json.dumps(reference_verify(g, wide))


# the same inputs with labels as they are, moved past a machine word, and
# moved to where residues modulo 2**61 - 1 wrap
@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(labeled_graphs(), st.lists(st.sampled_from((0, WIDE, 2**62 - 3)), min_size=7, max_size=7))
def test_the_edge_pass_without_its_index_gives_the_same_sizes(case, shifts):
    g, f = case
    moved = Labeling({v: f[v].shift(shifts[v]) for v in g.vertices()})
    assert _edge_pass(g, moved, index=False) == (*_edge_pass(g, moved)[:3], None)


def test_wide_labels_with_shared_keys_match_the_reference():
    # moved up by 2**70: {2}+{0,1,4} and {2}+{0,3,4} share the triple
    # (min, max, size) but differ, {1}+{1,2,5} repeats the first of them,
    # and {5,6}+{0,1} is not strong
    g = Graph(7, [(0, 1), (0, 2), (3, 4), (3, 5), (4, 6)])
    small = {0: [2], 1: [0, 1, 4], 2: [0, 3, 4], 3: [1], 4: [5, 6], 5: [1, 2, 5], 6: [0, 1]}
    f = Labeling({v: SetLabel(a).shift(WIDE) for v, a in small.items()})
    r = verify(g, f)
    assert json.dumps(r.as_dict()) == json.dumps(reference_verify(g, f))
    assert [(v.kind, v.witness) for v in r.violations] == [
        ("duplicate-edge-labels", (0, 1, 3, 5)), ("weak-equality", (4, 6)), ("strong-equality", (4, 6)),
    ]
