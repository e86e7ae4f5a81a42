"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from qlucas.qcombinatorics import RatioSpec


@st.composite
def balanced_specs(draw, max_dim=2):
    """Random balanced specs of dimension 1 to max_dim: nonzero vectors with
    entries at most 2, the column gaps filled by unit vectors."""
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(0, 2)] * dim).filter(any)
    e = draw(st.lists(vec, min_size=1, max_size=3))
    f = draw(st.lists(vec, min_size=0, max_size=3))
    for j in range(dim):
        gap = sum(v[j] for v in e) - sum(v[j] for v in f)
        unit = tuple(int(i == j) for i in range(dim))
        (f if gap > 0 else e).extend([unit] * abs(gap))
    return RatioSpec(dim, tuple(e), tuple(f))
