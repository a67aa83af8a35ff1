import inspect
import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordlab import diagrams
from chordlab.diagrams import (
    ChordDiagram,
    DiagramError,
    MutationKind,
    _check_share,
    _matchings,
    apply_mutation,
    canonical_code,
    canonical_word_bytes,
    class_keyer,
    enumerate_diagrams,
    find_shares,
    format_diagram,
    mutated_word,
    parse_diagram,
    random_diagram,
    random_slots,
    rotation_classes,
    share_moves,
)
from chordlab.graphs import interleave_rows, intersection_graph
from graph_moves import disjoint_union
from references import (
    diagram_product,
    induced_subdiagram,
    rotated,
    rotation_representatives,
)
from references import find_shares as reference_find_shares
from references import find_shares_by_runs, sampled_items
from references import interleave_rows as reference_interleave_rows


def double_factorial(m: int) -> int:
    return factorial(2 * m) // (2**m * factorial(m))


def reference_canonical_word_bytes(word) -> bytes:
    """The O(m^2) key: relabel every rotation, keep the least bytes."""
    m = len(word)
    if m == 0:
        return b""
    base = ord("A") if m // 2 <= 26 else 0
    best = None
    for r in range(m):
        labels: dict = {}
        rot = word[r:] + word[:r]
        b = bytes(base + labels.setdefault(ch, len(labels)) for ch in rot)
        if best is None or b < best:
            best = b
    return best


@st.composite
def raw_words(draw, max_order=12):
    """Double-occurrence words with arbitrary distinct nonnegative labels."""
    n = draw(st.integers(0, max_order))
    labels = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    slots = draw(st.permutations(range(2 * n)))
    word = [0] * (2 * n)
    for i, lab in enumerate(labels):
        word[slots[2 * i]] = word[slots[2 * i + 1]] = lab
    return tuple(word)


def crossings(d):
    out = set()
    for a in range(d.n):
        a1, a2 = d.endpoints(a)
        for b in range(a + 1, d.n):
            b1, b2 = d.endpoints(b)
            if (a1 < b1 < a2) != (a1 < b2 < a2):
                out.add((a, b))
    return out


class TestParsing:
    def test_crossing_word(self):
        assert crossings(parse_diagram("ABAB")) == {(0, 1)}

    def test_disjoint_word(self):
        assert crossings(parse_diagram("AABB")) == set()

    def test_alternating_word_is_complete(self):
        d = parse_diagram("ABCDABCD")
        assert crossings(d) == {(a, b) for a in range(4) for b in range(a + 1, 4)}

    def test_pair_list(self):
        assert parse_diagram("1-5,2-6,3-7,4-8").word == parse_diagram("ABCDABCD").word

    def test_format_roundtrip(self):
        for text in ("ABAB", "AABB", "ABCDABCD", "ABCACB"):
            d = parse_diagram(text)
            assert parse_diagram(format_diagram(d)).word == d.word
            assert parse_diagram(format_diagram(d, style="pairs")).word == d.word

    def test_pair_format(self):
        assert format_diagram(parse_diagram("ABCDABCD"), style="pairs") == (
            "1-5,2-6,3-7,4-8"
        )

    @pytest.mark.parametrize(
        "bad", ["ABA", "AAB", "ABCAB", "1-2,2-3", "1-2,3-3", "1-5,2-6", "A1A1", ""]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DiagramError):
            parse_diagram(bad)


class TestCanonicalCode:
    def test_relabeling_invariance(self):
        assert canonical_code(parse_diagram("BABA")) == canonical_code(
            parse_diagram("ABAB")
        )

    def test_rotation_invariance(self):
        d = parse_diagram("ABAB")
        for r in range(4):
            assert canonical_code(rotated(d, r)) == canonical_code(d)
        # == compares basepointed words; only the codes agree
        aabb = parse_diagram("AABB")
        assert aabb != rotated(aabb, 1)
        assert canonical_code(aabb) == canonical_code(rotated(aabb, 1))

    def test_order4_class_count(self):
        codes = {canonical_code(d) for d in enumerate_diagrams(4, "basepointed")}
        assert len(codes) == 18

    def test_congruence_under_rotation_and_relabeling(self):
        # spec-sized randomized trial: rotations and relabelings never
        # change the code
        rng = random.Random(20240817)
        for _ in range(10_000):
            n = rng.randrange(1, 9)
            d = random_diagram(n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = ChordDiagram(perm[c] for c in d.word)
            turned = rotated(relabeled, rng.randrange(2 * n))
            assert canonical_code(turned) == canonical_code(d)


class TestCanonicalKeyAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(raw_words())
    def test_matches_reference(self, word):
        assert canonical_word_bytes(word) == reference_canonical_word_bytes(word)

    @settings(max_examples=200, deadline=None)
    @given(raw_words(), st.data())
    def test_invariant_under_rotation_and_relabeling(self, word, data):
        r = data.draw(st.integers(0, max(len(word) - 1, 0)))
        chords = sorted(set(word))
        image = data.draw(st.permutations(chords))
        shift = dict(zip(chords, (x + 7 for x in image)))
        moved = tuple(shift[ch] for ch in word[r:] + word[:r])
        assert canonical_word_bytes(moved) == canonical_word_bytes(word)

    def test_every_word_up_to_order_6(self):
        for n in range(7):
            for word in _matchings(2 * n):
                assert canonical_word_bytes(word) == (
                    reference_canonical_word_bytes(word)
                )

    def test_raw_label_bytes_beyond_26_chords(self):
        rng = random.Random(11)
        for n in (27, 30):
            word = random_diagram(n, rng).word
            assert canonical_word_bytes(word) == reference_canonical_word_bytes(word)
            assert canonical_word_bytes(word)[0] == 0


class TestClassKeyer:
    @settings(max_examples=200, deadline=None)
    @given(raw_words(), st.data())
    def test_relabeling_hits_the_memo_with_the_same_key(self, word, data):
        chords = sorted(set(word))
        image = data.draw(st.permutations(chords))
        relabeled = tuple(dict(zip(chords, image))[ch] for ch in word)
        key = class_keyer()
        # the second call is a memo hit: both words relabel to one word
        assert key(word) == key(relabeled) == canonical_word_bytes(relabeled)
        assert canonical_word_bytes(relabeled) == canonical_word_bytes(word)

    def test_full_memo_is_emptied_and_keys_stay_exact(self, monkeypatch):
        keyed = []

        def counting(word):
            keyed.append(word)
            return canonical_word_bytes(word)

        monkeypatch.setattr(diagrams, "canonical_word_bytes", counting)
        monkeypatch.setattr(diagrams, "_KEYER_WORDS", 2)
        key = class_keyer()
        words = [d.word for d in enumerate_diagrams(3)]
        # two passes over the 15 words: a two-word memo is emptied before
        # any word comes round again, so every word is keyed twice
        assert [key(w) for w in words + words] == [
            canonical_word_bytes(w) for w in words + words
        ]
        assert len(keyed) == 30

    def test_memo_holds_every_word_at_the_exhaustive_ceiling(self):
        assert diagrams._KEYER_WORDS == double_factorial(diagrams.MAX_EXHAUSTIVE_ORDER)

    def test_raw_four_term_words(self):
        # one keyer across orders and windows: term words keep their chord
        # ids, and the memo must key them exactly as the plain key does
        key = class_keyer()
        for order in range(2, 8):
            for quad, weight in sampled_items(order, 200, order, four_term=True):
                assert weight == 1
                for w in quad:
                    assert key(w) == canonical_word_bytes(w)


def _kernel_words(name: str) -> list[tuple[int, ...]]:
    if name == "basepointed-0-6":
        return [d.word for n in range(7) for d in enumerate_diagrams(n)]
    if name == "random-order-8":
        rng = random.Random(8)
        return [random_diagram(8, rng).word for _ in range(500)]
    # mutants keep the chord ids of their class representative
    return [
        move(d.word)
        for d in enumerate_diagrams(5, "up-to-rotation")
        for _, _, moves in share_moves(d.word)
        for move in moves
    ]


class TestBitmaskKernelsAgainstReferences:
    @pytest.mark.parametrize(
        "name", ["basepointed-0-6", "random-order-8", "order-5-mutants"]
    )
    def test_rows_and_shares(self, name):
        words = _kernel_words(name)
        if name == "order-5-mutants":
            # labels out of first-appearance order
            assert any(w != diagrams._normalize(w) for w in words)
        for w in words:
            assert interleave_rows(w) == reference_interleave_rows(w)
            # a diagram on the word as it stands, labels unchanged
            d = diagrams._trusted_diagram(w)
            assert find_shares(d) == reference_find_shares(d)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (4, 105), (6, 10395)])
    def test_basepointed_counts(self, n, count):
        assert sum(1 for _ in enumerate_diagrams(n, "basepointed")) == count
        assert count == double_factorial(n)

    def test_orders_above_the_ceiling_raise_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started above the ceiling")

        monkeypatch.setattr(diagrams, "_matchings", no_work)
        # still a generator: it raises on the first item, not at the call
        assert inspect.isgeneratorfunction(enumerate_diagrams)
        for n, mode in ((9, "basepointed"), (9, "up-to-rotation"), (-1, "basepointed")):
            with pytest.raises(ValueError, match=f"order {n} outside 0..8"):
                next(enumerate_diagrams(n, mode))

    def test_order7_count(self):
        assert sum(1 for _ in enumerate_diagrams(7, "basepointed")) == 135135

    def test_up_to_rotation_yields_distinct_codes(self):
        reps = list(enumerate_diagrams(3, "up-to-rotation"))
        codes = [canonical_code(d) for d in reps]
        assert codes == sorted(set(codes))
        assert len(reps) == 5

    @pytest.mark.parametrize("n", range(8))
    def test_orderly_generator_matches_the_keyed_classes(self, n):
        # the same representatives in the same order, each its own code
        reps = list(enumerate_diagrams(n, "up-to-rotation"))
        assert reps == rotation_representatives(n)
        classes = list(rotation_classes(n))
        assert [d for d, _ in classes] == reps
        # every basepointed diagram lies in exactly one orbit
        assert sum(orbit for _, orbit in classes) == double_factorial(n)
        for d, orbit in classes if n <= 6 else ():
            turns = {rotated(d, r) for r in range(max(1, 2 * n))}
            assert orbit == len(turns)

    def test_orderly_generator_keys_no_word(self, monkeypatch):
        def no_key(word):
            raise AssertionError("a word was keyed")

        monkeypatch.setattr(diagrams, "canonical_word_bytes", no_key)
        assert sum(1 for _ in enumerate_diagrams(6, "up-to-rotation")) == 902
        assert sum(orbit for _, orbit in rotation_classes(6)) == 10395

    def test_rotation_classes_refuse_orders_above_the_ceiling(self):
        for n in (9, -1):
            with pytest.raises(ValueError, match=f"order {n} outside 0..8"):
                rotation_classes(n)

    def test_words_are_valid(self):
        for d in enumerate_diagrams(3, "basepointed"):
            assert sorted(d.word) == [0, 0, 1, 1, 2, 2]

    def test_random_diagram_deterministic(self):
        a = random_diagram(6, random.Random(5)).word
        b = random_diagram(6, random.Random(5)).word
        assert a == b

    @pytest.mark.parametrize("n", [*range(11), 27])
    def test_random_slots_are_the_shuffle_draws(self, n):
        # the same slots and the same generator state after each draw as
        # Random.shuffle
        for seed in range(200):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                slots = list(range(2 * n))
                ref.shuffle(slots)
                assert random_slots(n, ours) == slots
                assert ours.getstate() == ref.getstate()

    def test_random_diagram_matches_validated_construction(self):
        # the same shuffle draws, built through the validating constructor
        def validated(n, rng):
            slots = list(range(2 * n))
            rng.shuffle(slots)
            word = [0] * (2 * n)
            for ch in range(n):
                word[slots[2 * ch]] = word[slots[2 * ch + 1]] = ch
            return ChordDiagram(word)

        for n in range(1, 9):
            ours, ref = random.Random(n), random.Random(n)
            for _ in range(5000):
                d = random_diagram(n, ours)
                assert type(d) is ChordDiagram
                assert d == validated(n, ref)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_random_diagram_refuses_a_negative_order(self, n):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"nonnegative, got {n}"):
            random_diagram(n, rng)
        # refused before any draw
        assert rng.getstate() == state
        assert random_diagram(0, rng).word == ()


class TestInducedSubdiagram:
    def test_single_chord(self):
        assert induced_subdiagram(parse_diagram("ABAB"), {0}).word == (0, 0)

    def test_alternating_restriction(self):
        d = parse_diagram("ABCDABCD")
        assert induced_subdiagram(d, {0, 1}).word == parse_diagram("ABAB").word

    def test_middle_deletion_keeps_interleaving(self):
        d = induced_subdiagram(parse_diagram("ABCABC"), {0, 2})
        assert d.word == parse_diagram("ACAC").word
        assert crossings(d) == {(0, 1)}

    def test_full_subset_is_identity(self):
        d = parse_diagram("ABCACB")
        assert induced_subdiagram(d, range(3)).word == d.word

    def test_monotone_composition(self):
        # restricting to big then to small equals restricting to small;
        # the inner restriction relabels, so map ids through first
        # appearance in the restricted word
        rng = random.Random(11)
        for _ in range(200):
            d = random_diagram(6, rng)
            big = {c for c in range(6) if rng.random() < 0.7}
            small = {c for c in big if rng.random() < 0.6}
            seen: dict[int, int] = {}
            for ch in d.word:
                if ch in big and ch not in seen:
                    seen[ch] = len(seen)
            once = induced_subdiagram(d, big)
            via = induced_subdiagram(once, {seen[c] for c in small})
            assert via.word == induced_subdiagram(d, small).word

    def test_unknown_chord_rejected(self):
        with pytest.raises(DiagramError):
            induced_subdiagram(parse_diagram("ABAB"), {3})


class TestProduct:
    def test_unit(self):
        d = parse_diagram("ABAB")
        assert diagram_product(d, ChordDiagram(())).word == d.word

    def test_two_singles(self):
        got = diagram_product(parse_diagram("AA"), parse_diagram("AA"))
        assert got.word == parse_diagram("AABB").word

    def test_graph_is_disjoint_union(self, diagram_classes):
        for d1 in diagram_classes(2):
            for d2 in diagram_classes(3):
                prod = diagram_product(d1, d2)
                expected = disjoint_union(
                    intersection_graph(d1), intersection_graph(d2)
                )
                assert intersection_graph(prod) == expected


class TestShares:
    def test_isolated_chords_are_shares(self):
        d = parse_diagram("AABB")
        subsets = {s.chords for s in find_shares(d)}
        assert frozenset({0}) in subsets
        assert frozenset({1}) in subsets

    def test_whole_diagram_and_empty_are_shares(self, diagram_classes):
        for d in diagram_classes(4):
            subsets = {s.chords for s in find_shares(d)}
            assert frozenset(range(4)) in subsets
            assert frozenset() in subsets

    def test_complement_closure(self, diagram_classes):
        for n in range(1, 6):
            for d in diagram_classes(n):
                subsets = {s.chords for s in find_shares(d)}
                for s in subsets:
                    assert frozenset(range(n)) - s in subsets

    def test_share_arcs_cover_exactly_the_chord_endpoints(self, diagram_classes):
        for d in diagram_classes(4):
            m = 2 * d.n
            for share in find_shares(d):
                covered = set()
                for start, length in share.arcs:
                    covered.update((start + t) % m for t in range(length))
                expected = set()
                for ch in share.chords:
                    expected.update(d.endpoints(ch))
                assert covered == expected

    def test_orders_above_the_ceiling_raise(self):
        with pytest.raises(ValueError, match="order 9 outside 0..8"):
            find_shares(random_diagram(9, random.Random(9)))

    def test_table_shares_match_the_run_arithmetic(self):
        # every basepointed word of orders 0-6, then random words of 7-8
        for n in range(7):
            for d in enumerate_diagrams(n, "basepointed"):
                assert find_shares(d) == find_shares_by_runs(d)
        rng = random.Random(78)
        for _ in range(2000):
            d = random_diagram(rng.choice((7, 8)), rng)
            assert find_shares(d) == find_shares_by_runs(d)

    def test_found_shares_pass_the_share_check(self):
        # suite_mutation trusts the share table and skips this check
        for n in range(6):
            for d in enumerate_diagrams(n, "basepointed"):
                for share in find_shares(d):
                    _check_share(d, share)


class TestMutations:
    def test_whole_share_rotation_is_basepoint_move(self, diagram_classes):
        for d in diagram_classes(3):
            share = next(
                s for s in find_shares(d) if s.chords == frozenset(range(3))
            )
            out = apply_mutation(d, share, MutationKind.ROTATION)
            assert canonical_code(out) == canonical_code(d)

    def test_mutations_preserve_labeled_graph_small(self, diagram_classes):
        for n in range(1, 5):
            for d in diagram_classes(n):
                rows = intersection_graph(d).rows
                for share in find_shares(d):
                    for kind in MutationKind:
                        w = mutated_word(d, share, kind)
                        assert interleave_rows(w) == rows

    def test_two_reflections_compose_to_rotation(self, diagram_classes):
        for d in diagram_classes(4):
            for share in find_shares(d):
                raw = mutated_word(d, share, MutationKind.REFLECTION_VERTICAL)
                once = ChordDiagram(raw)
                # normalization relabels chords; carry the share subset over
                relabel: dict[int, int] = {}
                for ch in raw:
                    relabel.setdefault(ch, len(relabel))
                chords = frozenset(relabel[c] for c in share.chords)
                match = [s for s in find_shares(once) if s.chords == chords]
                assert match
                twice = apply_mutation(
                    once, match[0], MutationKind.REFLECTION_HORIZONTAL
                )
                rotated = apply_mutation(d, share, MutationKind.ROTATION)
                assert canonical_code(twice) == canonical_code(rotated)

    def test_share_table_moves_match_the_checked_path(self):
        # the index maps suite_mutation reads against apply_mutation's path
        for n in range(7):
            ident = tuple(range(2 * n))
            for d in enumerate_diagrams(n, "up-to-rotation"):
                table = share_moves(d.word)
                for (mask, arcs, moves), share in zip(
                    table, find_shares(d), strict=True
                ):
                    assert arcs == share.arcs
                    assert mask == sum(1 << ch for ch in share.chords)
                    for kind, move in zip(MutationKind, moves, strict=True):
                        expected = mutated_word(d, share, kind)
                        assert move(d.word) == expected
                        index_map = move(ident)
                        assert sorted(index_map) == list(ident)
                        assert tuple(d.word[i] for i in index_map) == expected

    def test_empty_word_has_three_empty_mutants(self):
        [(mask, arcs, moves)] = share_moves(())
        assert (mask, arcs) == (0, ((0, 0), (0, 0)))
        assert [move(()) for move in moves] == [(), (), ()]

    def test_invalid_share_rejected(self):
        from chordlab.diagrams import Share

        d = parse_diagram("ABAB")
        bad = Share(arcs=((0, 1), (1, 0)), chords=frozenset({0}))
        with pytest.raises(DiagramError):
            apply_mutation(d, bad, MutationKind.ROTATION)
