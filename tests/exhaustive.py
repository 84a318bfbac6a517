"""A bounded exhaustive Abelard for the machine games, kept for the tests.

``search`` plays every reply list of at most ``depth`` replies, depth first.
A reply is a number in [0, bound] with a handle that is fresh or one already
given, the root's included. The fresh handle of each depth is minted once, up
front, so that every replay of a prefix meets the same constants. A match is
deterministic for a fixed reply list, so each prefix is played again from the
start. A match ends in one of three ways:

- a win for Eloise;
- "opponent had no further reply" after ``depth`` replies: open, since the
  box ends there;
- a loss, which is a counterexample and is kept as its reply list.

Every match the search plays is also checked against the abstract game: its
(entry, m, n) records, played through ``play_g0``, give the machine's
verdict. There is one exception. A reply on a handle that several incomplete
entries share extends all of them, and one of the new positions may already
win the abstract game while the realizer, playing on its own position, has
not yet reached that handle; if the replies run out first, the machine's
match is open and the abstract one won. Such matches are counted as
``g0_ahead``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lamc.game import ScriptedAbelard, fresh_handle, play_g0

NO_REPLY = "opponent had no further reply"


@dataclass
class Search:
    root: tuple  # the handle every match starts from
    wins: int = 0
    open: int = 0
    g0_ahead: int = 0
    losses: list = field(default_factory=list)  # reply lists Abelard wins with


def g0_projection(outcome, phi, leading=()):
    """play_g0 with Eloise and Abelard replaying the machine's records."""
    records = list(outcome.moves)

    def eloise(history):
        return (records[0].entry_index, records[0].m) if records else None

    def abelard(history, entry_index, m):
        return records.pop(0).n

    return play_g0(phi, eloise, abelard, zs=leading)


def search(play, registry, realizer, phi, bound, depth, leading=()):
    """Every reply list in the box against realizer, with handles minted in
    registry: the root first, then one fresh handle per depth."""
    root, *fresh = (fresh_handle(registry) for _ in range(depth + 1))
    found = Search(root)

    def visit(replies, handles):
        out = play(registry, realizer, phi, root, ScriptedAbelard(replies),
                   leading=leading)
        g0 = g0_projection(out, phi, leading)
        if g0.verdict != out.verdict:
            shared = len({mr.move_number for mr in out.moves}) < len(out.moves)
            assert out.detail == NO_REPLY and shared and g0.eloise_won, \
                (replies, out.detail, g0.detail)
            found.g0_ahead += 1
        if out.eloise_won:
            found.wins += 1
        elif out.detail != NO_REPLY:
            found.losses.append(replies)
        elif len(replies) == depth:
            found.open += 1
        else:
            new = fresh[len(replies)]
            for n in range(bound + 1):
                for handle in (*handles, new):
                    visit([*replies, (n, *handle)],
                          handles if handle in handles else (*handles, new))

    visit([], (root,))
    return found
