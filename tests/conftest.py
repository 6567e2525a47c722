import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cohmin.kernel import Transducer  # noqa: E402  (after the path is set)


@pytest.fixture(autouse=True)
def checked_trusted_builds(monkeypatch):
    """Re-validate every trusted build: ``Transducer._trusted`` takes its
    parts without checking them, so in the tests each machine it builds is
    rebuilt through the validating constructor from the transitions its
    index lists, and its fields and index must equal that build's.  Each
    row must be a tuple of distinct targets; rows are compared as sets,
    since their order is free.  Returns the unchecked constructor."""
    trusted = Transducer._trusted

    def checked(signature, states, initial, adj):
        T = trusted(signature, states, initial, adj)
        delta = [(s, v, t) for s, row in adj.items() for v, targets in row.items()
                 for t in targets]
        twin = Transducer(signature, states, initial, delta)
        assert T == twin and type(T.states) is type(T.delta) is frozenset
        assert len(T.delta) == len(delta)
        assert T._adj.keys() == twin._adj.keys()
        for s, row in T._adj.items():
            assert row.keys() == twin._adj[s].keys()
            for v, targets in row.items():
                assert type(targets) is tuple and len(set(targets)) == len(targets)
                assert set(targets) == set(twin._adj[s][v])
        return T

    monkeypatch.setattr(Transducer, "_trusted", staticmethod(checked))
    return trusted
