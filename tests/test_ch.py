import ast
import os
import subprocess
import sys
from itertools import combinations

import pytest

import gw_reference as ref
import tropgw
from tropgw import ch
from tropgw.ch import (
    ch_count,
    max_genus,
    seq_stats,
    trim,
    weighted_partitions,
)
from tropgw.floors import delta_floor_count
from tropgw.gw import ONE, gw_equal, hyperbolic, render
from tropgw.lattice import delta_polygon
from tropgw.paths import count_lattice_path


def test_seq_stats_examples():
    assert seq_stats((0, 1)) == (1, 2, 2)
    assert seq_stats(()) == (0, 0, 1)
    assert seq_stats((2, 0, 1)) == (3, 5, 3)


def test_seq_binom_examples():
    assert ref.seq_binom((2,), (1,)) == 2
    assert ref.seq_binom((1, 1), (1, 1)) == 1
    assert ref.seq_binom((1,), (2,)) == 0
    assert ref.seq_binom((3, 2), (1,)) == 3


def partitions_by_brute_force(total: int) -> set:
    """The count sequences of the partitions of ``total``, read off every
    composition (each set of cut points of 1..total)."""
    if total == 0:
        return {()}
    found = set()
    for r in range(total):
        for cuts in combinations(range(1, total), r):
            bounds = (0, *cuts, total)
            parts = [b - a for a, b in zip(bounds, bounds[1:])]
            found.add(tuple(parts.count(i) for i in range(1, max(parts) + 1)))
    return found


def test_weighted_partitions_match_brute_force():
    # the package returns each partition as its classes ((w, n), ...), w
    # increasing; their count sequences are the brute force's
    for total in range(13):
        every = partitions_by_brute_force(total)
        for fewest in range(total + 2):
            for most in (None, *range(-1, total + 2)):
                got = weighted_partitions(total, fewest, most)
                top = total if most is None else most
                expected = {seq for seq in every if fewest <= sum(seq) <= top}
                dense = set()
                for classes in got:
                    weights = [w for w, _ in classes]
                    assert weights == sorted(set(weights)), classes  # increasing
                    assert all(n >= 1 for _, n in classes), classes
                    assert sum(w * n for w, n in classes) == total, classes
                    assert fewest <= sum(n for _, n in classes) <= top, classes
                    seq = [0] * max(weights, default=0)
                    for w, n in classes:
                        seq[w - 1] = n
                    dense.add(tuple(seq))
                assert len(dense) == len(got), (total, fewest, most)
                assert dense == expected, (total, fewest, most)
        assert len(weighted_partitions(total)) == len(every)


def relative_keys(top: int) -> list:
    """Every (d, alpha, beta) with 1 <= d <= top and I(alpha) + I(beta) = d,
    the sequences by weight and trimmed."""
    return [
        (d, alpha, beta)
        for d in range(1, top + 1)
        for ia in range(d + 1)
        for alpha in ref.dense_partitions(ia)
        for beta in ref.dense_partitions(d - ia)
    ]


def test_trim():
    assert trim((0, 1, 0, 0)) == (0, 1)
    assert trim(()) == ()
    with pytest.raises(ValueError):
        trim((-1,))
    # int() would read these as 2 and count beta = (2,) instead
    for entry in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError):
            trim((0, entry))
        with pytest.raises(ValueError):
            ch_count(2, 0, (), (entry,))


def test_base_cases():
    assert ch_count(1, 0, (), (1,)) == ONE
    assert ch_count(1, 0, (1,), ()) == ONE
    assert ch_count(1, 1, (), (1,)) == 0 * ONE
    assert ch_count(1, -1, (), (1,)) == 0 * ONE


def test_invalid_keys():
    with pytest.raises(ValueError):
        ch_count(2, 0, (1,), (2,))  # I alpha + I beta = 3 != 2
    with pytest.raises(ValueError):
        ch_count(0, 0, (), ())


def test_golden_values():
    assert ch_count(3, 0, (), (3,)) == hyperbolic(2) + 8 * ONE
    assert ch_count(2, 0, (), (2,)) == ONE
    assert ch_count(2, -1) == 3 * ONE
    assert ch_count(4, 0).rank == 675


def test_above_max_genus_vanishes():
    assert ch_count(3, 2) == 0 * ONE
    assert ch_count(4, 4) == 0 * ONE


def test_agreement_with_lattice_paths():
    for d in range(2, 6):
        for g in range(-1, max_genus(d) + 1):
            a = ch_count(d, g)
            b = count_lattice_path(delta_polygon(d), g)
            assert gw_equal(a, b), (d, g, render(a), render(b))


def test_rank_specialization_matches_classical_recursion():
    for d in range(2, 7):
        for g in range(0, max_genus(d) + 1):
            assert ch_count(d, g).rank == ref.ch_count(d, g).rank, (d, g)
    assert [ch_count(d, 0).rank for d in (3, 4)] == [12, 675]


def test_signature_specialization_matches_signed_recursion():
    for d in range(2, 6):
        for g in range(0, max_genus(d) + 1):
            assert ch_count(d, g).signature == ref.ch_count(d, g).signature, (d, g)


def test_relative_counts_match_gw_reference():
    # every genus from below the recursion's range (1 - 2d - |beta| >= 1 - 3d)
    # to one above max_genus(d), so both trimmed ends and the guard above the
    # top genus are compared; beta != (d) puts the class of I^beta, often not
    # a square, on the result
    checked = 0
    for d, alpha, beta in relative_keys(6):
        for g in range(1 - 3 * d, max_genus(d) + 2):
            value = ch_count(d, g, alpha, beta)
            expected = ref.ch_count(d, g, alpha, beta)
            assert gw_equal(value, expected), (d, g, alpha, beta)
            assert value.rank == expected.rank
            assert value.signature == expected.signature
            checked += 1
    assert checked == 3150


def test_agreement_with_floor_diagrams_past_one_machine_word():
    # the ranks at d = 10 take 68 bits
    value = ch_count(10, 0)
    assert value.rank.bit_length() > 64
    assert gw_equal(value, delta_floor_count(10, 0))


def test_relative_counts_small():
    # one fixed weight-1 end: a line through one point and the fixed end
    assert ch_count(1, 0, (1,), ()) == ONE
    # fixing an end of the conic count splits as expected
    value = ch_count(2, 0, (1,), (1,))
    assert value.rank == 1


def run_fresh(code: str) -> str:
    """Run code in a new interpreter, so the memo holds only what it counts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tropgw.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from tropgw import ch\n" + code],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_memo_keys_are_canonical():
    # inputs with a trailing zero are trimmed where they enter; the
    # recursion must not build a key with one either
    out = run_fresh(
        f"for d, alpha, beta in {relative_keys(7)!r}:\n"
        "    ch.ch_count(d, 0, alpha + (0,), beta + (0,))\n"
        "print(repr(sorted(ch.memo_snapshot())))\n"
    )
    keys = ast.literal_eval(out)
    assert len(keys) == 246
    for d, alpha, beta in keys:
        for seq in (alpha, beta):
            assert type(seq) is tuple and all(n >= 0 for n in seq), (d, alpha, beta)
            assert not seq or seq[-1] != 0, (d, alpha, beta)


def test_memo_size_in_a_fresh_process():
    out = run_fresh(
        "ch.ch_count(7, 0); print(len(ch.memo_snapshot()))\n"
        "ch.ch_count(9, 0); print(len(ch.memo_snapshot()))\n"
    )
    assert out.split() == ["144", "441"]


def test_floor_terms_built_once():
    # each (d, beta, target) enumerates its floors once per process; built
    # once per memo miss instead, these take 288 and 1,149 calls
    out = run_fresh(
        "calls = []\n"
        "def counted(*args, partitions=ch.weighted_partitions, **kwargs):\n"
        "    calls.append(args)\n"
        "    return partitions(*args, **kwargs)\n"
        "ch.weighted_partitions = counted\n"
        "ch.ch_count(7, 0); print(len(calls))\n"
        "ch.ch_count(9, 0); print(len(calls))\n"
    )
    assert out.split() == ["123", "335"]


def test_slot_width_grows_until_every_count_decodes():
    # from 3 bits per genus slot the widths double four times on the way to
    # d = 6; a cache's tuples, packed when first used, widen a count the same
    # way
    out = run_fresh(
        "ch._WIDTH = 3\n"
        "pairs = []\n"
        f"for d, alpha, beta in {relative_keys(6)!r}:\n"
        "    for g in range(1 - 3 * d, ch.max_genus(d) + 2):\n"
        "        value = ch.ch_count(d, g, alpha, beta)\n"
        "        pairs.append((value.rank, value.signature))\n"
        "print(max(entry[-1] for entry in ch._memo.values()))\n"
        "print(pairs)\n"
        "snapshot = ch.memo_snapshot()\n"
        "ch._memo.clear()\n"
        "ch.memo_load(snapshot)\n"
        "value = ch.ch_count(7, 0)\n"
        "print(ch._memo[7, (), (7,)][-1], value.rank, value.signature)\n"
    )
    width, pairs, reloaded = out.splitlines()
    assert int(width) == 48
    expected = []
    for d, alpha, beta in relative_keys(6):
        for g in range(1 - 3 * d, max_genus(d) + 2):
            value = ref.ch_count(d, g, alpha, beta)
            expected.append((value.rank, value.signature))
    assert ast.literal_eval(pairs) == expected
    value = ch_count(7, 0)
    width, rank, signature = map(int, reloaded.split())
    assert width > 3 and (rank, signature) == (value.rank, value.signature)


def test_a_wide_count_leaves_later_counts_narrow():
    # ch_count(10, 0) needs 160-bit slots; the d <= 9 entries counted after
    # it are packed at 80 bits again, as in a process that never widened
    out = run_fresh(
        "def bits():\n"
        "    return sum(e[1].bit_length() + e[2].bit_length() for e in ch._memo.values())\n"
        "ch.ch_count(9, 0); print(bits()); ch._memo.clear()\n"
        "ch.ch_count(10, 0); ch._memo.clear()\n"
        "ch.ch_count(9, 0); print(bits())\n"
    )
    first, again = out.split()
    assert again == first


def test_memo_snapshot_leaves_the_memo_as_it_is():
    ch_count(5, 0)  # a packed entry, whatever ran before
    ch.memo_load({(2, (), (2,)): (-1, (3, 1), (3, 1))})  # a cache tuple
    before = dict(ch._memo)
    snapshot = ch.memo_snapshot()
    assert ch._memo == before
    assert snapshot[2, (), (2,)] == (-1, (3, 1), (3, 1))
