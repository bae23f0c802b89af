"""Jet arithmetic against brute-force polynomial-dictionary oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from transportkit.errors import (FieldMismatchError, SchemaError,
                                 ShapeMismatchError, ValidationError)
from transportkit.jets import (
    MAX_COEFFS,
    Jet,
    P_dim,
    VectorFieldJet,
    _mul_table,
    degree_starts,
    grlex_key,
    jet_from_json,
    jet_mul,
    jet_to_json,
    monomials,
)

from conftest import (
    dict_directional,
    dict_mul,
    dict_truncate,
    dicts_close,
    jet_to_dict,
    reference_directional_derivative,
    reference_jet_evaluate,
    reference_mul_table,
)


def _random_scalar_jet(rng, n, N, density=0.8):
    coeffs = rng.standard_normal(P_dim(n, N))
    coeffs *= rng.random(coeffs.shape) < density
    return Jet(n, N, coeffs)


def _random_field(rng, n, N):
    comps = []
    for _ in range(n):
        j = _random_scalar_jet(rng, n, N)
        c = np.array(j.coeffs)
        c[0] = 0.0
        comps.append(Jet(n, N, c))
    return VectorFieldJet(comps)


# -- basis and ordering ------------------------------------------------

def test_p2_basis_two_variables():
    assert monomials(2, 2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_grlex_is_strict_total_order():
    mons = monomials(3, 4)
    keys = [grlex_key(a) for a in mons]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    degrees = [sum(a) for a in mons]
    assert degrees == sorted(degrees)


def test_dimension_formulas():
    for n in (1, 2, 3, 4):
        for N in range(5):
            assert P_dim(n, N) == math.comb(n + N, n)
            assert len(monomials(n, N)) == P_dim(n, N)
    starts = degree_starts(2, 3)
    assert list(starts) == [0, 1, 3, 6, 10]


# -- multiplication ----------------------------------------------------

def test_mul_simple_truncation():
    one_plus = Jet.from_terms(1, 1, {(0,): 1.0, (1,): 1.0})
    one_minus = Jet.from_terms(1, 1, {(0,): 1.0, (1,): -1.0})
    assert (one_plus * one_minus) == Jet.from_terms(1, 1, {(0,): 1.0})


def test_mul_coordinates():
    y1 = Jet.coordinate(2, 2, 0)
    y2 = Jet.coordinate(2, 2, 1)
    assert (y1 * y2) == Jet.from_terms(2, 2, {(1, 1): 1.0})


@pytest.mark.parametrize("n,N", [(1, 24), (2, 10), (2, 16), (2, 20), (3, 10),
                                 (4, 8), (3, 3), (1, 1), (5, 4), (64, 1)])
def test_mul_table_matches_pair_loop(n, N):
    # same triples in the same order, so every jet_mul sum is bit-identical;
    # at (64, 1) the base-2 exponent codes overflow int64
    for got, want in zip(_mul_table(n, N), reference_mul_table(n, N)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_mul_table_refuses_more_than_max_coeffs_triples():
    # the table of (n, N) holds P_dim(2n, N) triples: (3, 26) has 906,192,
    # (3, 27) has 1,107,568, about 26 MB of index arrays if allocated
    assert P_dim(6, 26) <= MAX_COEFFS < P_dim(6, 27)
    with pytest.raises(ValidationError, match="more than 1048576 index"):
        _mul_table(3, 27)
    y = Jet.coordinate(3, 27, 0)
    with pytest.raises(ValidationError, match="product table of 3-variable "
                                              "jets of order 27"):
        y * y


def test_mul_matches_dict_oracle(rng):
    for _ in range(20):
        a = _random_scalar_jet(rng, 2, 3)
        b = _random_scalar_jet(rng, 2, 3)
        got = jet_to_dict(jet_mul(a, b))
        want = dict_truncate(dict_mul(jet_to_dict(a), jet_to_dict(b)), 3)
        assert dicts_close(got, want)


def test_mul_ring_axioms(rng):
    a = _random_scalar_jet(rng, 2, 3)
    b = _random_scalar_jet(rng, 2, 3)
    c = _random_scalar_jet(rng, 2, 3)
    assert jet_mul(a, b).allclose(jet_mul(b, a))
    assert jet_mul(jet_mul(a, b), c).allclose(jet_mul(a, jet_mul(b, c)))
    assert jet_mul(a, b + c).allclose(jet_mul(a, b) + jet_mul(a, c))


def test_quotient_truncation_consistency(rng):
    # multiplying then truncating equals truncating then multiplying
    a = _random_scalar_jet(rng, 2, 5)
    b = _random_scalar_jet(rng, 2, 5)
    lhs = jet_mul(a, b).project(3)
    rhs = jet_mul(a.project(3), b.project(3))
    assert lhs.allclose(rhs)


def test_matrix_vector_products(rng):
    A = Jet(2, 2, rng.standard_normal((P_dim(2, 2), 2, 2)))
    v = Jet(2, 2, rng.standard_normal((P_dim(2, 2), 2)))
    got = jet_mul(A, v)
    # oracle: expand by hand on dictionaries of arrays
    a_d = jet_to_dict(A)
    v_d = jet_to_dict(v)
    want = {}
    for alpha, ca in a_d.items():
        for beta, cb in v_d.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if sum(gamma) <= 2:
                want[gamma] = want.get(gamma, np.zeros(2)) + ca @ cb
    assert dicts_close(jet_to_dict(got), want)


def test_scalar_value_broadcasting(rng):
    s = _random_scalar_jet(rng, 2, 2)
    v = Jet(2, 2, rng.standard_normal((P_dim(2, 2), 3)))
    sv = jet_mul(s, v)
    vs = jet_mul(v, s)
    assert sv.allclose(vs)
    assert sv.value_shape == (3,)


# -- directional derivative (the oracle behind reference_apply_operator) --

def test_euler_field_scales_by_degree():
    X = VectorFieldJet.euler(1, 4)
    for k in range(5):
        u = Jet.from_terms(1, 4, {(k,): 1.0})
        got = reference_directional_derivative(X, u)
        assert got.allclose(k * u)


def test_directional_derivative_gradient_example():
    # X = grad(y1^2/2 + y1^2 y2 + y2^2) applied to u = y2 gives X^2 = y1^2 + 2 y2
    phi = Jet.from_terms(2, 3, {(2, 0): 0.5, (2, 1): 1.0, (0, 2): 1.0})
    X = VectorFieldJet.from_gradient(phi)
    u = Jet.coordinate(2, 3, 1)
    got = reference_directional_derivative(X, u)
    assert got == Jet.from_terms(2, 3, {(2, 0): 1.0, (0, 1): 2.0})


def test_directional_derivative_matches_dict_oracle(rng):
    for _ in range(10):
        X = _random_field(rng, 2, 4)
        u = _random_scalar_jet(rng, 2, 4)
        got = jet_to_dict(reference_directional_derivative(X, u))
        want = dict_truncate(
            dict_directional([jet_to_dict(c) for c in X.components],
                             jet_to_dict(u)), 4)
        assert dicts_close(got, want, tol=1e-10)


def test_directional_derivative_preserves_vanishing_order(rng):
    X = _random_field(rng, 2, 5)
    u = Jet.from_terms(2, 5, {(2, 1): 1.0, (0, 4): -2.0})  # vanishes to order 3
    got = reference_directional_derivative(X, u)
    assert not np.any(got.coeffs[:degree_starts(2, 5)[3]])


def test_leibniz_rule(rng):
    X = _random_field(rng, 2, 4)
    u = _random_scalar_jet(rng, 2, 4)
    v = _random_scalar_jet(rng, 2, 4)
    lhs = reference_directional_derivative(X, jet_mul(u, v))
    rhs = jet_mul(reference_directional_derivative(X, u), v) + \
        jet_mul(u, reference_directional_derivative(X, v))
    assert lhs.allclose(rhs, rtol=1e-9, atol=1e-9)


# -- projection -----------------------------------------------------------

def test_projection_examples():
    u = Jet.from_terms(1, 2, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
    assert u.project(1) == Jet.from_terms(1, 1, {(0,): 1.0, (1,): 1.0})
    cubed = Jet.from_terms(1, 3, {(3,): 1.0})
    assert cubed.project(2) == Jet.zero(1, 2)


def test_member_of_maximal_ideal_power_projects_to_zero():
    u = Jet.from_terms(2, 5, {(3, 1): 1.0, (0, 5): 2.0})  # in m^4
    assert u.project(3) == Jet.zero(2, 3)


# -- field and shape discipline -----------------------------------------

def test_field_mixing_raises(rng):
    a = _random_scalar_jet(rng, 2, 2)
    b = a.to_complex()
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        jet_mul(a, b)
    with pytest.raises(FieldMismatchError):
        a * (1 + 2j)
    assert (a.to_complex() * (1 + 2j)).is_complex


def test_shape_mismatch_raises(rng):
    a = _random_scalar_jet(rng, 2, 2)
    b = _random_scalar_jet(rng, 2, 3)
    with pytest.raises(ShapeMismatchError):
        a + b
    v = Jet(2, 2, rng.standard_normal((P_dim(2, 2), 2)))
    M = Jet(2, 2, rng.standard_normal((P_dim(2, 2), 2, 2)))
    with pytest.raises(ShapeMismatchError):
        jet_mul(v, M)  # vector*matrix is not defined


def test_immutability(rng):
    a = _random_scalar_jet(rng, 2, 2)
    with pytest.raises(ValueError):
        a.coeffs[0] = 99.0


def test_vector_field_rejects_constant_term():
    bad = Jet.from_terms(2, 2, {(0, 0): 1.0})
    good = Jet.coordinate(2, 2, 1)
    with pytest.raises(ValueError):
        VectorFieldJet([bad, good])


def test_linearization_matrix():
    phi = Jet.from_terms(2, 3, {(2, 0): 0.5, (2, 1): 1.0, (0, 2): 1.0})
    X = VectorFieldJet.from_gradient(phi)
    assert np.array_equal(X.linearization, np.array([[1.0, 0.0], [0.0, 2.0]]))


def _random_field_components(rng, n, N, dtype):
    """n scalar jets without constant term, real or complex."""
    comps = []
    for _ in range(n):
        c = rng.standard_normal(P_dim(n, N)).astype(dtype)
        if dtype == np.complex128:
            c += 1j * rng.standard_normal(P_dim(n, N))
        c[0] = 0.0
        comps.append(Jet(n, N, c))
    return comps


def _loop_linearization(X):
    """a[i, j] = coefficient of y_j in component i, one entry at a time."""
    A = np.zeros((X.n, X.n), dtype=X.dtype)
    for i, c in enumerate(X.components):
        for j in range(X.n):
            A[i, j] = c.coefficient(tuple(int(k == j) for k in range(X.n)))
    return A


class TestVectorFieldJetInvariants:
    """Every way of making a VectorFieldJet gives an (n,)-valued jet of
    order >= 1 with zero constant term."""

    @staticmethod
    def fields(rng):
        comps = _random_field_components(rng, 3, 4, np.float64)
        X = VectorFieldJet(comps)
        phi = Jet.from_terms(2, 3, {(2, 0): 0.5, (2, 1): 1.0, (0, 2): 1.0})
        return {
            "constructor": X,
            "euler": VectorFieldJet.euler(2, 3),
            "euler_complex": VectorFieldJet.euler(2, 3, dtype=np.complex128),
            "from_linear": VectorFieldJet.from_linear(
                rng.standard_normal((3, 3)), 2),
            "from_linear_complex": VectorFieldJet.from_linear(
                np.array([[1.0, 1j], [0.0, 2.0]]), 1),
            "from_gradient": VectorFieldJet.from_gradient(phi),
            "extend": X.extend(6),
            "project": X.project(1),
            "to_complex": X.to_complex(),
        }

    @pytest.mark.parametrize("how", [
        "constructor", "euler", "euler_complex", "from_linear",
        "from_linear_complex", "from_gradient", "extend", "project",
        "to_complex"])
    def test_result_is_a_vector_field(self, rng, how):
        X = self.fields(rng)[how]
        assert type(X) is VectorFieldJet
        assert X.value_shape == (X.n,)
        assert X.N >= 1
        assert not np.any(X.coeffs[0])
        assert X.dtype in (np.float64, np.complex128)

    def test_structural_ops_keep_the_data(self, rng):
        fields = self.fields(rng)
        X = fields["constructor"]
        assert fields["extend"].project(X.N) == X
        assert np.array_equal(fields["project"].coeffs, X.coeffs[:P_dim(3, 1)])
        assert fields["to_complex"].dtype == np.complex128
        assert np.array_equal(fields["to_complex"].coeffs, X.coeffs)
        assert fields["euler_complex"].dtype == np.complex128

    def test_project_below_order_one_is_refused(self, rng):
        X = self.fields(rng)["constructor"]
        with pytest.raises(ShapeMismatchError, match="order N >= 1"):
            X.project(0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_components_round_trip_bit_for_bit(self, rng, dtype):
        comps = _random_field_components(rng, 3, 5, dtype)
        X = VectorFieldJet(comps)
        assert X.coeffs.shape == (P_dim(3, 5), 3)
        assert len(X.components) == 3
        for got, want in zip(X.components, comps):
            assert type(got) is Jet
            assert got.dtype == want.dtype
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_linearization_matches_the_entrywise_formula(self, rng, dtype, n):
        X = VectorFieldJet(_random_field_components(rng, n, 3, dtype))
        assert X.linearization.dtype == dtype
        assert np.array_equal(X.linearization, _loop_linearization(X))

    def test_from_linear_has_the_given_linearization(self, rng):
        A = rng.standard_normal((3, 3))
        X = VectorFieldJet.from_linear(A, 3)
        assert np.array_equal(X.linearization, A)
        assert not np.any(X.coeffs[P_dim(3, 1):])

    def test_constant_term_message_names_the_component(self):
        comps = [Jet.coordinate(2, 2, 0),
                 Jet.from_terms(2, 2, {(0, 0): 1.0, (0, 1): 1.0})]
        with pytest.raises(ValueError, match="component 1 has a nonzero"):
            VectorFieldJet(comps)


# -- evaluation and derivatives ------------------------------------------

def test_evaluate_matches_dict_oracle(rng):
    from conftest import dict_eval
    u = _random_scalar_jet(rng, 3, 3)
    for _ in range(5):
        pt = rng.uniform(-1, 1, size=3)
        assert np.isclose(u.evaluate(pt), dict_eval(jet_to_dict(u), pt))


def test_evaluate_bit_identical_to_power_product(rng):
    # 4,000 points, n <= 4, N <= 16, scalar/vector/matrix values, real and
    # complex points, against the product of y**alpha per monomial
    jets = {}
    mismatches = 0
    for _ in range(4000):
        n, N = int(rng.integers(1, 5)), int(rng.integers(0, 17))
        shape = [(), (2,), (2, 2)][int(rng.integers(3))]
        key = (n, N, shape)
        if key not in jets:
            jets[key] = Jet(n, N, rng.standard_normal((P_dim(n, N),) + shape))
        pt = rng.uniform(-1.5, 1.5, size=n)
        if rng.random() < 0.25:
            pt = pt + 1j * rng.uniform(-1.0, 1.0, size=n)
        got = jets[key].evaluate(pt)
        want = reference_jet_evaluate(jets[key], pt)
        mismatches += not np.array_equal(got, want)
    assert mismatches == 0


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
def test_evaluate_rejects_point_of_wrong_length(point):
    u = Jet.from_terms(2, 2, {(1, 0): 1.0})
    with pytest.raises(ShapeMismatchError) as info:
        u.evaluate(point)
    assert "n=2" in str(info.value)
    assert str(np.shape(point)) in str(info.value)


def test_partial_derivative(rng):
    from conftest import dict_diff
    u = _random_scalar_jet(rng, 2, 4)
    got = jet_to_dict(u.partial(0))
    want = dict_truncate(dict_diff(jet_to_dict(u), 0), 3)
    assert dicts_close(got, want)


# -- JSON round-trips ------------------------------------------------------

def test_json_roundtrip_scalar(rng):
    u = _random_scalar_jet(rng, 2, 3)
    again = jet_from_json(json.loads(json.dumps(jet_to_json(u))))
    assert again == u


def test_json_roundtrip_complex():
    u = Jet.from_terms(2, 2, {(1, 0): 1 + 2j, (0, 2): -3j})
    obj = jet_to_json(u)
    assert obj["terms"][0]["coeff"] == {"re": 1.0, "im": 2.0}
    assert jet_from_json(obj) == u


def test_json_roundtrip_matrix(rng):
    M = Jet(2, 2, rng.standard_normal((P_dim(2, 2), 2, 2)))
    obj = json.loads(json.dumps(jet_to_json(M)))
    assert obj["shape"] == "matrix:2"
    assert jet_from_json(obj) == M


def test_json_omitted_terms_are_zero():
    obj = {"n": 2, "N": 2, "shape": "scalar",
           "terms": [{"alpha": [1, 0], "coeff": 3.0}]}
    u = jet_from_json(obj)
    assert u == Jet.from_terms(2, 2, {(1, 0): 3.0})


@st.composite
def _any_jet(draw):
    n, N = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    vs = draw(st.sampled_from([(), (1,), (3,), (1, 1), (2, 2)]))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    finite = (st.floats(allow_nan=False, allow_infinity=False)
              if dtype is np.float64 else
              st.complex_numbers(allow_nan=False, allow_infinity=False))
    coeffs = draw(arrays(dtype, (P_dim(n, N),) + vs,
                         elements=st.one_of(st.just(0), finite)))
    return Jet(n, N, coeffs)


@settings(max_examples=200, deadline=None)
@given(_any_jet())
def test_json_roundtrip_any_jet(u):
    assert jet_from_json(json.loads(json.dumps(jet_to_json(u)))) == u


def _nested(depth):
    x = 1.0
    for _ in range(depth):
        x = [x]
    return x


def _one_term(coeff, **extra):
    return {"n": 1, "N": 2, "shape": "scalar",
            "terms": [{"alpha": [1], "coeff": coeff, **extra}]}


@pytest.mark.parametrize("obj,path,message", [
    # each of these used to decode, or to escape as OverflowError or
    # RecursionError
    ({"n": 1, "N": 2, "term": []}, "", "unknown key 'term'"),
    ({"n": 1, "N": 2}, "", "missing required key 'terms'"),
    (_one_term(math.nan), "terms[0].coeff", "expected finite coefficients"),
    (_one_term(-math.inf), "terms[0].coeff", "expected finite coefficients"),
    (_one_term({"re": 1e400, "im": 0}), "terms[0].coeff",
     "expected finite coefficients"),
    (_one_term(10**400), "terms[0].coeff", "expected finite coefficients"),
    (_one_term(_nested(5000)), "terms[0].coeff",
     "expected a scalar, vector or matrix"),
    (_one_term(1.0, bogus=1), "terms[0]", "unknown key 'bogus'"),
    # 20,001 coefficients fit, but their multi-indices hold 20,000 entries
    # each (about 3 GB)
    ({"n": 20000, "N": 1, "terms": []}, "",
     "the jet needs more than 1048576 coefficients"),
])
def test_json_fault_names_its_path(obj, path, message):
    with pytest.raises(ValueError) as info:
        jet_from_json(obj)
    assert isinstance(info.value, SchemaError)
    assert (info.value.path, info.value.message) == (path, message)
    assert str(info.value) == (f"{path}: {message}" if path else message)


def test_json_jet_in_many_variables():
    # the multi-indices used to be enumerated by one recursion per
    # variable, which ran out of stack at n = 1000
    obj = {"n": 5000, "N": 0, "terms": [{"alpha": [0] * 5000, "coeff": 2.0}]}
    assert jet_from_json(obj) == Jet.constant(5000, 0, 2.0)


def test_json_repeated_multi_index_rejected():
    # the second term used to overwrite the first without a message
    obj = {"n": 1, "N": 2, "shape": "vector:1",
           "terms": [{"alpha": [2], "coeff": [1.0]},
                     {"alpha": [2], "coeff": [5.0]}]}
    with pytest.raises(ValueError, match=r"^terms\[1\]\.alpha repeats the "
                                         r"multi-index of terms\[0\]$"):
        jet_from_json(obj)
