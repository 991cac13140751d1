import ast
import os
import subprocess
import sys
from itertools import combinations

import pytest

import gw_reference as ref
import tropgw
from tropgw.ch import (
    ch_count,
    max_genus,
    seq_binom,
    seq_stats,
    trim,
    weighted_partitions,
)
from tropgw.gw import ONE, gw_equal, hyperbolic, render
from tropgw.lattice import delta_polygon
from tropgw.paths import count_lattice_path


def test_seq_stats_examples():
    assert seq_stats((0, 1)) == (1, 2, 2)
    assert seq_stats(()) == (0, 0, 1)
    assert seq_stats((2, 0, 1)) == (3, 5, 3)


def test_seq_binom_examples():
    assert seq_binom((2,), (1,)) == 2
    assert seq_binom((1, 1), (1, 1)) == 1
    assert seq_binom((1,), (2,)) == 0
    assert seq_binom((3, 2), (1,)) == 3


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
    for total in range(13):
        every = partitions_by_brute_force(total)
        assert sorted(weighted_partitions(total)) == sorted(every)
        for fewest in range(total + 2):
            for most in (None, *range(-1, total + 2)):
                got = list(weighted_partitions(total, fewest, most))
                top = total if most is None else most
                expected = {seq for seq in every if fewest <= sum(seq) <= top}
                assert len(set(got)) == len(got), (total, fewest, most)
                assert set(got) == expected, (total, fewest, most)
                assert all(seq[-1] for seq in got if seq)  # trimmed


def test_trim():
    assert trim((0, 1, 0, 0)) == (0, 1)
    assert trim(()) == ()
    with pytest.raises(ValueError):
        trim((-1,))


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
    for d in range(1, 7):
        for ia in range(d + 1):
            for alpha in weighted_partitions(ia):
                for beta in weighted_partitions(d - ia):
                    for g in range(1 - 3 * d, max_genus(d) + 2):
                        value = ch_count(d, g, alpha, beta)
                        expected = ref.ch_count(d, g, alpha, beta)
                        assert gw_equal(value, expected), (d, g, alpha, beta)
                        assert value.rank == expected.rank
                        assert value.signature == expected.signature
                        checked += 1
    assert checked == 3150


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
        "for d in range(1, 8):\n"
        "    for ia in range(d + 1):\n"
        "        for alpha in ch.weighted_partitions(ia):\n"
        "            for beta in ch.weighted_partitions(d - ia):\n"
        "                ch.ch_count(d, 0, alpha + (0,), beta + (0,))\n"
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
