"""verify against the plain per-edge reference loop on generated labelings."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from iasi import Graph, Labeling, SetLabel, check_strong_criterion, verify  # noqa: E402
from helpers import reference_verify  # noqa: E402


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
