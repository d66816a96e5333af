import copy
import pickle
from pathlib import Path

import pytest

from ratroot.cli import build_eig
from ratroot.core import Params, check_state
from ratroot.engine import mat_pow
from ratroot.spectral import decompose


def test_params_accepts_valid_instances():
    p = Params(2, 1)
    assert (p.n, p.k) == (2, 1)
    assert Params(8, 10**30).k == 10**30


@pytest.mark.parametrize("n,k", [(1, 2), (0, 2), (-3, 2), (2, 0), (2, -1)])
def test_params_rejects_out_of_range(n, k):
    with pytest.raises(ValueError):
        Params(n, k)


def test_params_rejects_non_integers():
    with pytest.raises(ValueError):
        Params(2.0, 2)
    with pytest.raises(ValueError):
        Params(2, "2")


def test_params_is_hashable_value_type():
    assert Params(3, 5) == Params(3, 5)
    assert len({Params(3, 5), Params(3, 5), Params(3, 6)}) == 2
    # the repr names both fields, as a failing assertion or traceback shows it
    assert repr(Params(3, 5)) == "Params(n=3, k=5)"
    with pytest.raises(AttributeError):
        Params(3, 5).n = 4


def test_check_state_returns_a_tuple():
    s = check_state([1, 1], 2)
    assert s == (1, 1)
    assert type(s) is tuple


def test_check_state_rejects_all_zero_and_wrong_length():
    with pytest.raises(ValueError, match="nonzero entry"):
        check_state((), 2)
    with pytest.raises(ValueError, match="nonzero entry"):
        check_state((0, 0, 0), 3)
    with pytest.raises(ValueError, match=r"state length 2 != n=3"):
        check_state((1, 1), 3)


def test_check_state_allows_partial_zeros():
    assert check_state((0, 5), 2) == (0, 5)


def test_mat_pow_rejects_non_square():
    # a matrix is a tuple of row tuples; the reference power checks its shape
    with pytest.raises(ValueError, match="square and nonempty"):
        mat_pow(((1, 2),), 1)
    with pytest.raises(ValueError, match="square and nonempty"):
        mat_pow(((1, 2), (3,)), 1)
    with pytest.raises(ValueError, match="square and nonempty"):
        mat_pow((), 0)


def test_value_types_survive_pickle_and_deepcopy():
    # values may be shared between processes, so each must round-trip
    values = [
        Params(3, 5),
        decompose(Params(3, 2), (1, 2, 3)),
        decompose(Params(2, 2), (1, 1)),
        build_eig(Params(3, 2)),
    ]
    for v in values:
        assert pickle.loads(pickle.dumps(v)) == v
        assert copy.deepcopy(v) == v


def test_readme_library_snippet_runs_as_written():
    # the snippet imports from the top-level package; its exports must resolve
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *body, last = snippet.strip().splitlines()
    namespace = {}
    exec("\n".join(body), namespace)
    assert eval(last, namespace) == 60

    import ratroot

    missing = [name for name in ratroot.__all__ if not hasattr(ratroot, name)]
    assert missing == []
