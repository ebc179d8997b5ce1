"""The augmenting-path flow behind every matching decision.

`assign` serves the injective matchings of `qo.inj_le` and
`qo.wqo_inj_le` and, with unit needs and rooms, the child matchings
of `balltree.embeds` and the reductions.  It lives on its own so that
each of those modules compiles it without compiling the other.
"""

from __future__ import annotations


def assign(need, room, fits) -> dict[tuple[int, int], int] | None:
    """Place need[i] units of every source i on targets j with fits(i, j),
    at most room[j] units on target j.

    Returns the units sent per (source, target) index pair, or None when
    no such placement exists.  Sources are served in index order, each
    by BFS augmenting paths through an implicit residual graph: forward
    arcs where `fits` holds, backward arcs along the units already sent.
    The flow is maximum for every prefix of sources, so the first source
    that finds no path decides None.  `fits` is asked lazily, never for
    a target the current search has already reached, and never for a
    source after that first failing one.
    """
    if sum(need) > sum(room):
        return None
    load = [0] * len(room)
    sent: list[dict[int, int]] = [{} for _ in room]  # sent[j][i]: units of i on j
    for i, left in enumerate(need):
        while left:
            via: dict[int, int] = {}  # target -> source whose forward arc reached it
            back: dict[int, int | None] = {i: None}  # source -> target it was reached from
            queue = [i]
            end = None
            for s in queue:  # the queue grows while it is read
                for j in range(len(room)):
                    if j in via or not fits(s, j):
                        continue
                    via[j] = s
                    if load[j] < room[j]:
                        end = j
                        break
                    for t in sent[j]:
                        if t not in back:
                            back[t] = j
                            queue.append(t)
                if end is not None:
                    break
            if end is None:
                return None
            amount, j = min(left, room[end] - load[end]), end
            while (prev := back[via[j]]) is not None:
                amount = min(amount, sent[prev][via[j]])
                j = prev
            load[end] += amount
            left -= amount
            j = end
            while j is not None:
                s = via[j]
                sent[j][s] = sent[j].get(s, 0) + amount
                j = back[s]
                if j is not None:
                    sent[j][s] -= amount
                    if not sent[j][s]:
                        del sent[j][s]
    return {(i, j): units for j, got in enumerate(sent) for i, units in got.items()}
