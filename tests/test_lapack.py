"""The package's LAPACK calls on scipy's library: numpy.linalg's bits and
errors, and the guard that keeps every BLAS and LAPACK call in _linalg."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import specstab as ss
from specstab import _linalg

SRC = Path(ss.__file__).resolve().parent

# each routine at the sizes a run gives it: the controller's and observer's
# order N0 + 1 or N0, the core m = 2 N0 + 1 and its Hamiltonian 2m, the
# closed loop's side 2N + 1 (+ 1 for Theta1) up to N = 40 and its
# Hamiltonian, and fit_decay's window of up to T / dt samples
PLACEMENT = [1, 2, 3, 4, 5]
SQUARE = [1, 2, 3, 5, 9, 18, 41, 82]


def same_bits(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape \
        and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", PLACEMENT + SQUARE[3:])
def test_eigvals_has_the_bits_of_numpy(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    for M in (A, np.triu(A), A - A.T):  # complex, real and imaginary spectra
        assert same_bits(_linalg.eigvals(M), np.linalg.eigvals(M)), n


def test_eigvals_is_real_when_every_imaginary_part_is_0():
    assert _linalg.eigvals(np.diag([3.0, -1.0])).dtype == np.float64
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(np.sort_complex(_linalg.eigvals(rotation)), [-1j, 1j])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigvals_refuses_non_finite_input_as_numpy_does(bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        np.linalg.eigvals(A)
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        _linalg.eigvals(A)


@pytest.mark.parametrize("n", SQUARE)
def test_eigvalsh_has_the_bits_of_numpy_from_the_lower_triangle(n):
    rng = np.random.default_rng(100 + n)
    A = rng.standard_normal((n, n))
    S = A + A.T
    assert same_bits(_linalg.eigvalsh(S), np.linalg.eigvalsh(S))
    # the strict upper triangle is never read, as numpy's UPLO = "L"
    lower = np.tril(S) + np.triu(rng.standard_normal((n, n)), 1)
    assert same_bits(_linalg.eigvalsh(lower), np.linalg.eigvalsh(S))


@pytest.mark.parametrize("n", PLACEMENT)
def test_real_solve_has_the_bits_of_numpy_at_the_placement_orders(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(20):
        A = rng.standard_normal((n, n))
        b, B = rng.standard_normal(n), rng.standard_normal((n, n))
        assert same_bits(_linalg.solve(A, b), np.linalg.solve(A, b))
        assert same_bits(_linalg.solve(A, B), np.linalg.solve(A, B))


@pytest.mark.parametrize("n", SQUARE)
def test_complex_solve_has_the_bits_of_numpy(n):
    # _hinf_norm_sq's resolvent (jw I - A) x = b with real A and b
    rng = np.random.default_rng(300 + n)
    A, b = rng.standard_normal((n, n)), rng.standard_normal(n)
    for w in (0.0, 0.3, 17.0):
        Z = 1j * w * np.eye(n) - A
        assert same_bits(_linalg.solve(Z, b), np.linalg.solve(Z, b)), w


def test_solve_leaves_its_operands_unchanged():
    rng = np.random.default_rng(4)
    A, b = rng.standard_normal((4, 4)), rng.standard_normal(4)
    A0, b0 = A.copy(), b.copy()
    _linalg.solve(A, b)
    _linalg.solve(1j * np.eye(4) - A, b)
    assert np.array_equal(A, A0) and np.array_equal(b, b0)


@pytest.mark.parametrize("n", PLACEMENT)
def test_svdvals_has_the_bits_of_numpy(n):
    rng = np.random.default_rng(400 + n)
    A = rng.standard_normal((n, n))
    ctrb = np.vander(rng.uniform(-3.0, 3.0, n), increasing=True)  # Krylov-like, ill-conditioned
    for M in (A, ctrb):
        assert same_bits(_linalg.svdvals(M), np.linalg.svd(M, compute_uv=False))


@pytest.mark.parametrize("m", [2, 3, 10, 1001, 30001])
def test_lstsq_has_the_bits_of_numpy(m):
    # fit_decay's column-scaled design [t, 1] and its rcond = m eps
    rng = np.random.default_rng(500 + m)
    for _ in range(6):
        a = np.empty((m, 2))
        a[:, 0] = np.sort(rng.uniform(0.0, 40.0, m))
        a[:, 1] = 1.0
        a /= np.sqrt((a * a).sum(axis=0))
        y = rng.standard_normal(m) - 0.5 * a[:, 0]
        rcond = m * np.finfo(float).eps
        x, _, rank, _ = np.linalg.lstsq(a, y, rcond)
        for scratch in (a.copy(), np.asfortranarray(a)):  # copied by f2py, or worked in
            got, got_rank = _linalg.lstsq(scratch, y.copy(), rcond)
            assert same_bits(got, x) and got_rank == rank


@pytest.mark.parametrize("n", [5, 53, 103, 203])
def test_eigvals_and_svdvals_have_the_bits_of_scipy(n):
    # simulate's abscissa of A_cl, of side 2N + 1 + N_sim - N, and its step
    # norms: scipy.linalg makes the same dgeev and dgesdd calls
    rng = np.random.default_rng(600 + n)
    A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    assert same_bits(_linalg.eigvals(A).real, scipy.linalg.eigvals(A).real)
    assert same_bits(_linalg.svdvals(A), scipy.linalg.svdvals(A))


def test_lstsq_reports_the_rank_numpy_reports():
    a = np.ones((5, 2))
    x, _, rank, _ = np.linalg.lstsq(a, np.arange(5.0), 5 * np.finfo(float).eps)
    got, got_rank = _linalg.lstsq(a, np.arange(5.0), 5 * np.finfo(float).eps)
    assert got_rank == rank == 1 and same_bits(got, x)


def failing(n_out):
    """A LAPACK driver stub that reports info = 3 in its last output."""
    return lambda *args, **kwargs: (np.zeros(2),) * (n_out - 1) + (3,)


@pytest.mark.parametrize("driver, n_out, call", [
    ("dgeev", 5, lambda: _linalg.eigvals(np.eye(2))),
    ("dsyevd", 3, lambda: _linalg.eigvalsh(np.eye(2))),
    ("dsyevr", 5, lambda: _linalg.largest_eigenvalue(np.eye(2))),
    ("dgesv", 4, lambda: _linalg.solve(np.eye(2), np.ones(2))),
    ("zgesv", 4, lambda: _linalg.solve(1j * np.eye(2), np.ones(2))),
    ("dgesdd", 4, lambda: _linalg.svdvals(np.eye(2))),
    ("dgelsd", 4, lambda: _linalg.lstsq(np.eye(2), np.ones(2), 1e-15)),
])
def test_routine_raises_when_lapack_reports_failure(monkeypatch, driver, n_out, call):
    monkeypatch.setattr(_linalg, driver, failing(n_out))
    with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
        call()


def test_singular_solve_raises_as_numpy_does():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(singular, np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _linalg.solve(singular, np.ones(2))


# ---------------------------------------------------------------- the guard

#: what the package may still use of numpy.linalg: no LAPACK call among them
NUMPY_LINALG_ALLOWED = {"norm", "LinAlgError"}
#: scipy.linalg's ways to a BLAS or LAPACK routine by name, for _linalg alone
SCIPY_DRIVERS = {"blas", "lapack", "get_blas_funcs", "get_lapack_funcs"}
#: the scipy.linalg routines that _linalg stands in for
SCIPY_REPLACED = {"eigvals", "eigvalsh", "solve", "svdvals", "lstsq"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _linalg_uses(tree):
    """(line, name, call node or None) for every numpy.linalg name a module uses."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in ("np.linalg", "numpy.linalg"):
            yield node.lineno, node.attr, calls.get(id(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            for alias in node.names:
                yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "linalg":
                    yield node.lineno, "linalg", None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    yield node.lineno, alias.name, None


def _scipy_linalg_uses(tree):
    """(line, name) for every scipy.linalg name a module imports or reads,
    through any alias of scipy or of scipy.linalg; blas and lapack for an
    import of those modules."""
    names = {"scipy.linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "scipy" and alias.asname:
                    names.add(f"{alias.asname}.linalg")
                elif alias.name == "scipy.linalg" and alias.asname:
                    names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "linalg")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in names:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in ("scipy.linalg.blas",
                                                                 "scipy.linalg.lapack"):
            yield node.lineno, node.module.rsplit(".", 1)[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("scipy.linalg.blas", "scipy.linalg.lapack"):
                    yield node.lineno, alias.name.rsplit(".", 1)[1]


def _norm_order(call):
    order = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "ord"), None)
    if isinstance(order, ast.Constant):
        return order.value
    return _dotted(order) if order is not None else None


def violations(name, text):
    """(rule, where) for each break of the package's three linear-algebra
    rules in the source text of module `name`: numpy.linalg only for norm of
    order 1 or inf and LinAlgError; BLAS and LAPACK imported by _linalg
    alone; no call of a scipy.linalg routine that _linalg stands in for."""
    tree = ast.parse(text)
    found = []
    for line, what, call in _linalg_uses(tree):
        where = f"{name}:{line} {what}"
        if what not in NUMPY_LINALG_ALLOWED:
            found.append(("numpy.linalg", where))
        elif what == "norm" and (call is None or _norm_order(call) not in (1, "np.inf")):
            found.append(("numpy.linalg", f"{where} (ord must be 1 or np.inf)"))
    for line, what in _scipy_linalg_uses(tree):
        if what in SCIPY_DRIVERS and name != "_linalg.py":
            found.append(("blas and lapack", f"{name}:{line} {what}"))
        elif what in SCIPY_REPLACED:
            found.append(("replaced", f"{name}:{line} {what}"))
    return found


def package_violations(rule):
    return [where for path in sorted(SRC.glob("*.py"))
            for broken, where in violations(path.name, path.read_text()) if broken == rule]


def test_no_module_calls_numpy_linalg_beyond_norm_and_linalg_error():
    found = package_violations("numpy.linalg")
    assert not found, found


def test_only_the_linalg_module_imports_blas_or_lapack():
    found = package_violations("blas and lapack")
    assert not found, found
    tree = ast.parse((SRC / "_linalg.py").read_text())
    assert {"blas", "lapack"} <= {what for _, what in _scipy_linalg_uses(tree)}


def test_no_module_calls_the_scipy_linalg_routines_that_linalg_replaces():
    found = package_violations("replaced")
    assert not found, found


@pytest.mark.parametrize("rule, planted", [
    ("numpy.linalg", "np.linalg.eigvals(a)"),
    ("numpy.linalg", "np.linalg.norm(a, 2)"),
    ("numpy.linalg", "from numpy.linalg import svd"),
    ("numpy.linalg", "from numpy import linalg"),
    ("blas and lapack", "from scipy.linalg.lapack import dgeev"),
    ("blas and lapack", "from scipy.linalg import blas"),
    ("blas and lapack", "import scipy.linalg.lapack"),
    ("blas and lapack", "from scipy.linalg import get_lapack_funcs"),
    ("blas and lapack", "import scipy as sp\nsp.linalg.blas.dgemm"),
    ("replaced", "from scipy.linalg import eigvals"),
    ("replaced", "import scipy.linalg\nscipy.linalg.svdvals(a)"),
    ("replaced", "from scipy import linalg as la\nla.solve(a, b)"),
    ("replaced", "import scipy.linalg as sla\nsla.lstsq(a, b)"),
    ("replaced", "from scipy.linalg import eigvalsh as eigenvalues"),
])
def test_the_guard_finds_a_planted_violation(rule, planted):
    text = (SRC / "simulate.py").read_text()
    assert not violations("simulate.py", text)
    assert [broken for broken, _ in violations("simulate.py", f"{text}\n{planted}\n")] == [rule]
    if rule == "blas and lapack":  # where _linalg may import them
        assert not violations("_linalg.py", planted)


@pytest.fixture
def numpy_lapack_forbidden(monkeypatch):
    """numpy.linalg's LAPACK routines, by their public names and by the
    module that holds numpy's LAPACK gufuncs, raise when called."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in ("eigvals", "eigvalsh", "solve", "svd", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))

    class NoGufuncs:
        def __getattr__(self, name):
            raise AssertionError(f"numpy's LAPACK gufunc {name} called")

    impl = getattr(np.linalg, "_linalg", None)
    if impl is not None and hasattr(impl, "_umath_linalg"):
        monkeypatch.setattr(impl, "_umath_linalg", NoGufuncs())


def test_guard_catches_a_numpy_lapack_call(numpy_lapack_forbidden):
    with pytest.raises(AssertionError, match="numpy.linalg.eigvals"):
        np.linalg.eigvals(np.eye(2))
    # a numpy.linalg routine outside the five reaches numpy's LAPACK too
    if hasattr(np.linalg, "_linalg"):
        with pytest.raises(AssertionError, match="gufunc"):
            np.linalg.det(np.eye(2))


def test_the_pipeline_runs_without_numpy_lapack(numpy_lapack_forbidden, monkeypatch):
    # the lyap-highorder sweep, the design, verify_certificate, free_p_certificate
    # on an infeasible order and up to the Riccati solve on a feasible one, and
    # fit_decay; scipy's solve_continuous_are calls numpy's svd and cond itself,
    # so no point here reaches it
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.neumann(), delta=0.5)
    norms = ss.lyapunov_norm_sweep(plant, ss.analytic_spectrum(plant.boundary, 51),
                                   N_list=(10, 20, 30, 40))
    assert np.all(np.isfinite(norms)) and np.all(norms > 0)

    def reduced(q_c):
        plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=q_c,
                             measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
        red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 51, 2000), 50)
        return red, ss.assemble_closed_loop(red, ss.design_gains(red), 3)

    red, model = reduced(10.0)  # no order certifies at q_c = 10
    cert, margin = ss.free_p_certificate(model, red, ss.optimal_alpha(red, 3))
    assert cert is None and margin > 0

    red, model = reduced(3.0)
    alpha = ss.optimal_alpha(red, 3)
    P = ss.lyapunov_solve(model, red.delta)
    checked = ss.verify_certificate(model, red, P, alpha, 1e-3, 1e-3)
    assert checked.p_min_eig > 0 and np.isfinite(checked.theta1_max_eig)

    def no_riccati(*args, **kwargs):
        raise np.linalg.LinAlgError("Riccati solve left out")

    monkeypatch.setattr(ss.certificate, "solve_continuous_are", no_riccati)
    cert, margin = ss.free_p_certificate(model, red, alpha)
    assert cert is None and margin < 0  # decided feasible, its point left out

    t = np.linspace(0.0, 10.0, 1001)
    assert ss.fit_decay(t, np.exp(-0.7 * t), (0.5, 9.5)) == pytest.approx(0.7, abs=1e-9)
