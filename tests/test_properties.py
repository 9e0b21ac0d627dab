"""Property tests: the four text parsers round-trip byte-exactly and reject
every edit they cannot reproduce, the canonical form does not change under
relabeling, ``is_r_partite`` agrees with a sweep over every vertex coloring,
and the two ``ex`` routes agree on random small families."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowlab.antiramsey import ArRecord, EdgeColoring, coloring_from_text, coloring_to_text
from rainbowlab.cache import (
    CacheError,
    ar_record_from_text,
    ar_record_to_text,
    turan_record_from_text,
    turan_record_to_text,
)
from rainbowlab.core import (
    FormatError,
    HyperGraph,
    HyperGraphFamily,
    canonical_form,
    from_text,
    is_r_partite,
    to_text,
)
from rainbowlab.turan import SOLVER_VERSION, TuranRecord, ex_enumerate, ex_exact, verify_witness
from helpers import brute_r_partite, random_relabel

# characters that int() accepts around or inside a number but that no
# canonical text holds there (a tab, an underscore, a plus sign, an
# Arabic-Indic 3), and the separators of the four formats
TRICKY = "0_+-\t٣ \n=:"
ALPHABET = TRICKY + "123456789abcdefmnorstuwxAIMNRTU"

KEYS = st.text("0123456789abcdef", min_size=16, max_size=16)


@st.composite
def hypergraphs(draw, r=None, n=None):
    r = draw(st.integers(1, 3)) if r is None else r
    n = draw(st.integers(0, 6)) if n is None else n
    pool = list(itertools.combinations(range(n), r))
    return HyperGraph(r, n, draw(st.lists(st.sampled_from(pool), unique=True)) if pool else [])


@st.composite
def colorings(draw):
    """A surjective coloring of K_n^r: the drawn colors renumbered 1..N."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 6))
    E = comb(n, r)
    raw = draw(st.lists(st.integers(1, E), min_size=E, max_size=E))
    rank = {c: i + 1 for i, c in enumerate(sorted(set(raw)))}
    return EdgeColoring(r, n, len(rank), [rank[c] for c in raw])


@st.composite
def turan_records(draw):
    witness = draw(hypergraphs())
    rec = TuranRecord(
        n=witness.n,
        family_key=draw(KEYS),
        value=len(witness.edges),
        witness=witness,
        status=draw(st.sampled_from(["exact", "lower_bound_only"])),
        solver=draw(st.sampled_from([SOLVER_VERSION, "rainbowlab-0.0.9"])),
        closed_by="cache",
    )
    return rec, draw(st.one_of(st.just(""), KEYS))


@st.composite
def ar_records(draw):
    witness = draw(st.one_of(st.none(), colorings()))
    value = 1 if witness is None else witness.ncolors + 1
    hi = 0
    status = draw(st.sampled_from(["exact", "bounds"]))
    if status == "bounds":
        hi = value + draw(st.integers(0, 5))
    rec = ArRecord(
        n=draw(st.integers(2, 6)) if witness is None else witness.n,
        t=draw(st.integers(1, 3)),
        F_key=draw(KEYS),
        value=value,
        witness=witness,
        status=status,
        hi=hi,
        solver=SOLVER_VERSION,
        closed_by="cache",
    )
    return rec, draw(st.one_of(st.just(""), KEYS))


@st.composite
def edited(draw, text):
    """``text`` after 1-3 random character edits: insert, delete or replace."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(ALPHABET))
        if op == "insert":
            text = text[:i] + c + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + c + text[i + 1 :]
    return text


def _manifest(text):
    """The manifest named on a record's meta line ``meta solver=S manifest=M``."""
    return text.split("\n")[1].split(" ")[2].partition("=")[2]


PARSERS = {
    "hypergraph": (hypergraphs().map(to_text), from_text, lambda H, text: to_text(H)),
    "coloring": (
        colorings().map(coloring_to_text),
        coloring_from_text,
        lambda chi, text: coloring_to_text(chi),
    ),
    "turan": (
        turan_records().map(lambda p: turan_record_to_text(*p)),
        turan_record_from_text,
        lambda rec, text: turan_record_to_text(rec, _manifest(text)),
    ),
    "ar": (
        ar_records().map(lambda p: ar_record_to_text(*p)),
        ar_record_from_text,
        lambda rec, text: ar_record_to_text(rec, _manifest(text)),
    ),
}


class TestParsers:
    @settings(max_examples=60, deadline=None)
    @given(hypergraphs())
    def test_hypergraph_round_trip(self, H):
        back = from_text(to_text(H))
        assert (back.r, back.n, back.edges) == (H.r, H.n, H.edges)

    @settings(max_examples=60, deadline=None)
    @given(colorings())
    def test_coloring_round_trip(self, chi):
        assert coloring_from_text(coloring_to_text(chi)) == chi

    @settings(max_examples=60, deadline=None)
    @given(turan_records())
    def test_turan_record_round_trip(self, case):
        rec, manifest = case
        text = turan_record_to_text(rec, manifest)
        back = turan_record_from_text(text)
        assert back._replace(witness=None) == rec._replace(witness=None)
        assert turan_record_to_text(back, manifest) == text

    @settings(max_examples=60, deadline=None)
    @given(ar_records())
    def test_ar_record_round_trip(self, case):
        rec, manifest = case
        text = ar_record_to_text(rec, manifest)
        back = ar_record_from_text(text)
        assert back._replace(witness=None) == rec._replace(witness=None)
        assert back.witness == rec.witness
        assert ar_record_to_text(back, manifest) == text

    @pytest.mark.parametrize("kind", sorted(PARSERS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edits_are_rejected_or_canonical(self, kind, data):
        texts, parse, serialize = PARSERS[kind]
        _rejected_or_canonical(parse, serialize, data.draw(edited(data.draw(texts))))

    @pytest.mark.parametrize("kind", sorted(PARSERS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_every_tricky_single_edit_is_rejected_or_canonical(self, kind, data):
        # random edits seldom land next to a number; this sweep tries each
        # tricky character at every position
        texts, parse, serialize = PARSERS[kind]
        text = data.draw(texts)
        for i in range(len(text) + 1):
            _rejected_or_canonical(parse, serialize, text[:i] + text[i + 1 :])
            for c in TRICKY:
                _rejected_or_canonical(parse, serialize, text[:i] + c + text[i:])
                _rejected_or_canonical(parse, serialize, text[:i] + c + text[i + 1 :])


def _rejected_or_canonical(parse, serialize, text):
    try:
        obj = parse(text)
    except (FormatError, CacheError):
        return
    assert serialize(obj, text) == text, text


class TestCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 9).flatmap(lambda n: hypergraphs(n=n)), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, H, rng):
        assert canonical_form(random_relabel(H, rng)) == canonical_form(H)


class TestRPartite:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 7).flatmap(lambda n: hypergraphs(n=n)))
    def test_equals_sweep_over_all_colorings(self, H):
        assert is_r_partite(H) == brute_r_partite(H)


@st.composite
def small_families(draw):
    """(n, fam): 1-2 members on at most 4 vertices each, edgeless members and
    isolated vertices included, and a host with C(n, r) <= 20."""
    r = draw(st.integers(2, 3))
    member = st.integers(1, 4).flatmap(lambda v: hypergraphs(r=r, n=v))
    members = draw(st.lists(member, min_size=1, max_size=2))
    return draw(st.integers(r, 6)), HyperGraphFamily(r, members)


class TestDualOracle:
    @settings(max_examples=80, deadline=None)
    @given(small_families())
    def test_branch_and_bound_equals_enumeration(self, case):
        n, fam = case
        rec = ex_exact(n, fam)
        assert rec.value == ex_enumerate(n, fam)[0]
        assert rec.is_exact() and verify_witness(rec, fam)
