"""Independent values the checks need, computed in a process of their own so
that the benchmark process never holds the package (a child's peak RSS, as
wait4 reports it, includes its parent's at the time of the spawn).

    python oracle.py

Prints one JSON object: ``ex``, a list of [n, shape, t, ex(n, tF)] from
``rainbowlab.turan.ex_enumerate`` for every (n, shape, t) in
``checks.ORACLE_EX``, and ``families``, the family key of each shape list in
``checks.FAMILIES``, which names the session's cached records.
"""

import json

import checks
from rainbowlab.core import HyperGraph, HyperGraphFamily, family_key
from rainbowlab.turan import ex_enumerate


def family(shapes, t=1):
    members = [HyperGraph(*checks.tile(s, t)) for s in shapes]
    return HyperGraphFamily(members[0].r, members)


print(
    json.dumps(
        {
            "ex": [[n, s, t, ex_enumerate(n, family([s], t))[0]] for n, s, t in checks.ORACLE_EX],
            "families": {family_key(family(f)): f for f in checks.FAMILIES},
        }
    )
)
