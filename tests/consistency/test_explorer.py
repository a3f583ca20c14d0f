"""Bounded model checking of the protocols (the tech report's TLA+
verification, run against the real implementation)."""

import itertools

import pytest

from repro.consistency import ProtocolExplorer, all_interleavings


class TestInterleavingEnumeration:
    def test_counts_match_multinomial(self):
        # 2 programs of lengths 2 and 2: C(4,2) = 6 interleavings.
        assert len(list(all_interleavings([2, 2]))) == 6
        # Lengths 3 and 2: C(5,2) = 10.
        assert len(list(all_interleavings([3, 2]))) == 10
        # Three programs of length 1: 3! = 6.
        assert len(list(all_interleavings([1, 1, 1]))) == 6

    def test_program_order_preserved(self):
        for schedule in all_interleavings([3, 2]):
            assert [s for s in schedule if s == 0] == [0, 0, 0]
            assert [s for s in schedule if s == 1] == [1, 1]

    @pytest.mark.parametrize("lengths", [
        (2, 1), (3, 3), (2, 3, 1), (0, 2, 1), (3, 3, 3), (4, 4, 2),
    ])
    def test_matches_deduplicated_permutations(self, lengths):
        # Reference: every permutation of the slot multiset, first
        # occurrences kept — same schedules, same order.
        slots = [i for i, n in enumerate(lengths) for _ in range(n)]
        reference = list(dict.fromkeys(itertools.permutations(slots)))
        assert list(all_interleavings(lengths)) == reference


CONTENDED = dict(
    programs=[
        [("r", "x"), ("w", "x"), ("r", "y")],
        [("w", "x"), ("w", "y")],
    ],
    initial_values={"x": 0, "y": 0},
)

WRITE_HEAVY = dict(
    programs=[
        [("w", "x"), ("w", "y"), ("w", "x")],
        [("r", "x"), ("w", "y")],
    ],
    initial_values={"x": 0, "y": 0},
)

THREE_WAY = dict(
    programs=[
        [("r", "x"), ("w", "y")],
        [("w", "x")],
        [("r", "y"), ("r", "x")],
    ],
    initial_values={"x": 0, "y": 0},
)


@pytest.mark.parametrize("protocol", ["halfmoon-read", "halfmoon-write"])
@pytest.mark.parametrize(
    "scenario", [CONTENDED, WRITE_HEAVY, THREE_WAY],
    ids=["contended", "write-heavy", "three-way"],
)
def test_exhaustive_exploration_finds_no_violations(protocol, scenario):
    explorer = ProtocolExplorer(protocol, seed=5, **scenario)
    result = explorer.explore(with_crashes=True)
    assert result.schedules_explored > 0
    assert result.crash_variants_explored > 0
    assert result.ok, result.violations[:3]


def test_boki_crash_replay_reads_stable():
    """Boki has no derived order to validate, but crash/replay read
    stability is still checked exhaustively."""
    explorer = ProtocolExplorer("boki", seed=5, **CONTENDED)
    result = explorer.explore(with_crashes=True)
    assert result.ok, result.violations[:3]


def test_unsafe_protocol_fails_crash_replay():
    """The checker has teeth: the unsafe baseline violates read stability
    under at least one crash/interleaving combination."""
    explorer = ProtocolExplorer(
        "unsafe",
        programs=[
            [("r", "x"), ("r", "x")],
            [("w", "x")],
        ],
        initial_values={"x": 0},
        seed=5,
    )
    result = explorer.explore(with_crashes=True)
    assert not result.ok
    assert any(v.crash is not None for v in result.violations)


def test_result_summary_format():
    explorer = ProtocolExplorer(
        "halfmoon-read",
        programs=[[("r", "x")], [("w", "x")]],
        initial_values={"x": 0},
    )
    result = explorer.explore(with_crashes=False)
    assert "2 schedules" in result.summary()
    assert "0 violations" in result.summary()
