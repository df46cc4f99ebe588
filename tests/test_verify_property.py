"""verify against the plain per-edge reference loop on generated labelings."""

import importlib
import json
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from iasi import Graph, Labeling, LabelingError, SetLabel, check_strong_criterion, verify  # noqa: E402
from helpers import reference_from_json, reference_verify  # noqa: E402

verify_module = importlib.import_module("iasi.verify")
_edge_pass = verify_module._edge_pass


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
    # some or all labels moved up by 2**70, so the sums that each edge key
    # hashes span several machine words and sit far apart or close together
    g, f = case
    wide = Labeling({v: f[v].shift(shifts[v]) for v in g.vertices()})
    want = reference_verify(g, wide)
    assert json.dumps(verify(g, wide).as_dict()) == json.dumps(want)
    assert check_strong_criterion(g, wide) == want["is_strong"]


# verify keys each edge by the hash of its label's (min, max, size), and
# the int hash is the residue modulo the prime P = 2**61 - 1, the
# sys.hash_info.modulus of 64-bit builds.  Moved up by 2**62 - 2 - t, which
# is P - t modulo P, an element below t has a residue just under P and any
# other one a small residue, so residue sums of equal edge labels can
# differ by P.
@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(labeled_graphs(), st.integers(1, 8), st.lists(st.booleans(), min_size=7, max_size=7))
def test_verify_matches_the_reference_loop_where_residues_wrap(case, t, moved):
    g, f = case
    wide = Labeling({v: f[v].shift((2**62 - 2 - t) * moved[v]) for v in g.vertices()})
    assert json.dumps(verify(g, wide).as_dict()) == json.dumps(reference_verify(g, wide))


# the same inputs with labels as they are, moved past a machine word, and
# moved to where residues modulo the hash's modulus 2**61 - 1 wrap
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


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(labeled_graphs())
def test_keys_that_all_collide_change_no_report(case):
    # with every key 0, all edges share one bucket, so unequal labels meet
    # there on many edges at once, and each edge takes one exact sumset
    g, f = case
    made = Counter()

    def counted(a, b, real=verify_module.sumset):
        made[id(a), id(b)] += 1  # each vertex has a label object of its own
        return real(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "hash", lambda key: 0, raising=False)
        mp.setattr(verify_module, "sumset", counted)
        got = json.dumps(verify(g, f).as_dict())
    assert got == json.dumps(reference_verify(g, f))
    assert max(made.values(), default=1) == 1
    if len(g.edges) > 1:
        assert len(made) == len(g.edges)


# keys and arrays the per-key loop refuses, each with its own message
BAD_KEYS = ["01", "+1", "1_0", "-0", " 1", "1 ", "\u0661", "\uff12", "-3", "9" * 4301, "x", "1.0", ""]
BAD_ARRAYS = ["5", '"1"', "{}", "null", "[true]", "[0, 1.0]", "[[1]]", "[]", "[2, 1]", "[1, 1]",
              "[0, 3, 2]", "[-1, 2]", "[-2]", "[5, -3]"]


@st.composite
def labeling_texts(draw):
    """A JSON object of valid (key, array) pairs in any key order, often with
    refused pairs among them: bad keys, repeated keys and bad arrays."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=8))
    arrays = st.lists(st.integers(0, 2**64), min_size=1, max_size=4, unique=True).map(sorted)
    pairs = [(json.dumps(str(v)), json.dumps(draw(arrays))) for v in ids]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["key", "repeat", "array"]))
        if kind == "key":
            pair = (json.dumps(draw(st.sampled_from(BAD_KEYS))), json.dumps(draw(arrays)))
        elif kind == "repeat" and pairs:
            pair = (draw(st.sampled_from(pairs))[0], json.dumps(draw(arrays)))
        else:
            pair = (json.dumps(str(draw(st.integers(0, 40)))), draw(st.sampled_from(BAD_ARRAYS)))
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return "{" + ", ".join(f"{k}: {a}" for k, a in pairs) + "}"


def outcome(load, text):
    """The labeling text loads to, with its ids in order, or the error line."""
    try:
        f = load(text)
    except LabelingError as exc:
        return str(exc)
    return f, list(f.assignment)


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(labeling_texts())
def test_from_json_matches_the_per_key_loop(text):
    assert outcome(Labeling.from_json, text) == outcome(reference_from_json, text)
