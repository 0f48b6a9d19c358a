import numpy as np
import pytest

import specstab as ss
from specstab.errors import IoFailure
from specstab.sdpa import SdpaProblem, read_sdpa

from conftest import sdpa_theta1_coefficients, verified_free_p_certificate


def export(pipeline, N, alpha=2.0, path=None):
    model = ss.assemble_closed_loop(pipeline.reduced, pipeline.gains, N)
    ss.export_sdpa(model, pipeline.reduced, alpha, path)
    return model


def test_export_counts_dirichlet(dirichlet_pipeline, tmp_path):
    path = tmp_path / "d3.dat-s"
    export(dirichlet_pipeline, 3, path=path)
    prob = read_sdpa(path)
    assert prob.m_dim == 30  # 7*8/2 P entries + beta + gamma
    assert prob.block_sizes == [8, 7, -1, -1, -1]


def test_export_counts_neumann(neumann_pipeline, tmp_path):
    path = tmp_path / "n2.dat-s"
    export(neumann_pipeline, 2, path=path)
    prob = read_sdpa(path)
    assert prob.m_dim == 17  # 5*6/2 + 2
    assert prob.block_sizes == [6, 5, -1, -1, -1, -1]


def test_export_round_trip_byte_identical(dirichlet_pipeline, tmp_path):
    p1 = tmp_path / "a.dat-s"
    p2 = tmp_path / "b.dat-s"
    export(dirichlet_pipeline, 3, path=p1)
    read_sdpa(p1).write(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("text, where", [
    ("", "0 of the 4 header rows"),
    ("* only a comment\n\n", "0 of the 4 header rows"),
    ("2\n1\n2\n", "3 of the 4 header rows"),
    ("2\n1\n2\n0 0\n1 1 1 1 2.5\n0 1 1 2\n", "line 6: an entry"),
    ("2\n1\n2\n0 0\n1 1 1 1 2.5 7\n", "line 5: an entry"),
    ("2\n1\n2\n0 0\n1 1 one 1 2.5\n", "line 5: an entry"),
    ("two\n1\n2\n0 0\n", "line 1: m must be an integer"),
    ("2\n1\n2 3\n0 0\n", "line 3: block size row has 2 entries"),
    ("2\n1\n2\n0\n", "line 4: objective row has 1 entries"),
])
def test_read_sdpa_names_the_file_and_line_it_cannot_parse(tmp_path, text, where):
    path = tmp_path / "bad.dat-s"
    path.write_text(text)
    with pytest.raises(IoFailure) as raised:
        read_sdpa(path)
    assert str(path) in str(raised.value) and where in str(raised.value)


def test_read_sdpa_refuses_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "binary.dat-s"
    path.write_bytes(b"2\n\xff\n")
    with pytest.raises(IoFailure, match="cannot read"):
        read_sdpa(path)


def test_export_values_survive_parsing(dirichlet_pipeline, tmp_path):
    path = tmp_path / "d.dat-s"
    model = export(dirichlet_pipeline, 3, path=path)
    prob = read_sdpa(path)
    # gamma's block-1 coefficient is -alpha*G on the upper triangle, exactly
    k_gamma = prob.m_dim
    G = model.G
    for (block, i, j), v in prob.entries[k_gamma].items():
        if block == 1:
            assert v == -2.0 * G[i - 1, j - 1]


def _export_case(measurement: str, coefficients: str):
    """(reduced, gains) of one plant of the export matrix, delta = 0.5, 51 modes:
    the left trace at q_c = 3, the left flux at q_c = 10 and 3, or the weight
    c = 1 + x/2 at q_c = 3; p = 1, q = 0 or p = 1 + x/2, q = x^2."""
    q_c, meas = {"trace3": (3.0, ss.MeasurementSpec.dirichlet()),
                 "flux10": (10.0, ss.MeasurementSpec.neumann()),
                 "flux3": (3.0, ss.MeasurementSpec.neumann()),
                 "bounded": (3.0, ss.MeasurementSpec.bounded(
                     lambda x: 1.0 + 0.5 * np.asarray(x, dtype=float)))}[measurement]
    coeffs = ss.CoefficientPair.constant(1.0, 0.0) if coefficients == "const" else \
        ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0])
    plant = ss.PlantSpec(coeffs=coeffs, q_c=q_c, measurement=meas, delta=0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 51, 2000) if coefficients == "const" \
        else ss.solve_spectrum(coeffs, plant.boundary, 51)
    reduced = ss.reduce(plant, spectrum, 50)
    return reduced, ss.design_gains(reduced)


@pytest.mark.parametrize("measurement, coefficients, order, alpha", [
    *((m, c, "N0+3", "star") for m in ("trace3", "flux10", "flux3", "bounded")
      for c in ("const", "var")),
    ("trace3", "const", "N0+1", 2.0), ("flux10", "var", "N0+1", 7.5),
    ("bounded", "var", 12, 2.0), ("flux3", "const", 12, 7.5), ("trace3", "var", 20, "star")])
def test_export_theta1_matches_the_unit_point_route(measurement, coefficients, order,
                                                    alpha, tmp_path):
    # block 1 is written from the rows of [F, Lcal]; every variable's
    # coefficient, read back, is bit for bit -Theta1 at its unit point: the
    # diagonal and off-diagonal P entries, core, i3 and i4 rows alike
    reduced, gains = _export_case(measurement, coefficients)
    N = reduced.N0 + int(order[3:]) if isinstance(order, str) else order  # "N0+k"
    alpha = ss.optimal_alpha(reduced, N) if alpha == "star" else alpha
    model = ss.assemble_closed_loop(reduced, gains, N)
    path = tmp_path / "theta1.dat-s"
    ss.export_sdpa(model, reduced, alpha, path)
    prob = read_sdpa(path)
    n = model.dim
    for k, expected in enumerate(sdpa_theta1_coefficients(model, reduced, alpha), start=1):
        got = np.zeros((n + 1, n + 1))
        for (b, i, j), v in prob.entries.get(k, {}).items():
            if b == 1:
                got[i - 1, j - 1] = v
        assert np.array_equal(got, expected), f"variable {k}"


def test_export_adds_only_what_it_writes(dirichlet_pipeline, tmp_path, monkeypatch):
    # at N = 20 the export hands SdpaProblem.add at most two calls per entry
    # it writes; the unit-point route scanned every variable's whole Theta1
    # (780,197 calls)
    calls = [0]
    add = SdpaProblem.add

    def counted(self, *args):
        calls[0] += 1
        add(self, *args)

    monkeypatch.setattr(SdpaProblem, "add", counted)
    path = tmp_path / "d20.dat-s"
    export(dirichlet_pipeline, 20, path=path)
    written = len(path.read_text().splitlines()) - 4
    assert calls[0] <= 2 * written


def _materialize(prob, x):
    """X(x) = sum_k x_k F_k - F0 per block, from parsed entries."""
    blocks = [np.zeros((abs(s), abs(s))) for s in prob.block_sizes]
    for k, mat in prob.entries.items():
        coef = x[k - 1] if k >= 1 else -1.0
        for (b, i, j), v in mat.items():
            blocks[b - 1][i - 1, j - 1] += coef * v
            if i != j:
                blocks[b - 1][j - 1, i - 1] += coef * v
    return blocks


@pytest.mark.parametrize("which, N", [("dirichlet_pipeline", 3), ("neumann_pipeline", 2)])
def test_export_encodes_theta_blocks(which, N, request, tmp_path):
    # plugging the computed free-P certificate into the parsed problem must
    # reproduce -Theta1 and P - mu*I, and the point, scaled up past the mu
    # offsets, must satisfy every block
    pipeline = request.getfixturevalue(which)
    cert = verified_free_p_certificate(pipeline, N)
    path = tmp_path / "check.dat-s"
    assert cert.eps == pipeline.reduced.tail_eps
    model = export(pipeline, N, alpha=cert.alpha, path=path)
    prob = read_sdpa(path)
    P, beta, gamma = cert.P, cert.beta, cert.gamma
    n = model.dim
    x = np.append(P[np.triu_indices(n)], [beta, gamma])
    blocks = _materialize(prob, x)
    # block 1 == -Theta1
    delta = pipeline.reduced.delta
    T1 = np.zeros((n + 1, n + 1))
    T1[:n, :n] = model.F.T @ P + P @ model.F + 2 * delta * P + cert.alpha * gamma * model.G
    T1[:n, n] = T1[n, :n] = P @ model.Lcal
    T1[n, n] = -beta
    assert np.max(np.abs(blocks[0] - (-T1))) < 1e-9 * max(1.0, np.max(np.abs(T1)))
    # block 2 == P - mu I
    assert np.max(np.abs(blocks[1] - (P - 1e-6 * np.eye(n)))) < 1e-12 * np.max(np.abs(P))
    # blocks 5 and 6 == -Theta2 and Theta3
    assert blocks[4][0, 0] == pytest.approx(-cert.theta2, rel=1e-12)
    if len(blocks) == 6:
        assert blocks[5][0, 0] == pytest.approx(cert.theta3, rel=1e-12)
    # the scaled certificate is strictly feasible for every block
    margin = min(cert.p_min_eig, -cert.theta1_max_eig, beta, gamma, -cert.theta2, cert.theta3)
    for b, blk in enumerate(_materialize(prob, (10.0 * 1e-6 / margin) * x)):
        assert np.linalg.eigvalsh(0.5 * (blk + blk.T))[0] > 0, f"block {b + 1}"


def test_entry_format_17_digits(dirichlet_pipeline, tmp_path):
    path = tmp_path / "fmt.dat-s"
    model = export(dirichlet_pipeline, 3, path=path)
    lines = path.read_text().splitlines()
    data = [ln.split() for ln in lines[4:]]
    # every written value parses back to the exact double that produced it,
    # e.g. the Theta2 gamma coefficient
    lam4 = dirichlet_pipeline.spectrum.lambdas[3]
    expected = 2.0 * (0.5 * lam4 - 3.0 - 0.5)
    k_gamma = str(read_sdpa(path).m_dim)
    vals = [float(tok[4]) for tok in data if tok[0] == k_gamma and tok[1] == "5"]
    assert vals == [expected]
    # F entries appear untruncated
    assert any(len(tok[4].replace("-", "").replace(".", "").replace("e", "")) >= 16
               for tok in data)


def test_exported_problem_solvable_by_external_sdp(dirichlet_pipeline,
                                                   neumann_pipeline, tmp_path):
    # fidelity path: an interior-point solver run on the exported file finds
    # the free-P feasibility the original report claims at N = 3 / N = 2
    cp = pytest.importorskip("cvxpy")
    for pipeline, N in ((dirichlet_pipeline, 3), (neumann_pipeline, 2)):
        path = tmp_path / f"solve{N}.dat-s"
        export(pipeline, N, path=path)
        prob = read_sdpa(path)
        x = cp.Variable(prob.m_dim)
        cons = []
        for b, size in enumerate(prob.block_sizes, start=1):
            dim = abs(size)
            expr = -_constant_block(prob, b, dim)
            for k, mat in prob.entries.items():
                if k == 0:
                    continue
                coef = _coef_block(mat, b, dim)
                if coef is not None:
                    expr = expr + x[k - 1] * coef
            cons.append(expr >> 1e-7 * np.eye(dim) if dim > 1 else expr >= 1e-7)
        problem = cp.Problem(cp.Minimize(0), cons)
        problem.solve(solver="CLARABEL")
        assert problem.status in ("optimal", "optimal_inaccurate"), \
            f"external solve failed at N={N}: {problem.status}"


@pytest.mark.parametrize("which, N", [("dirichlet_pipeline", 3), ("neumann_pipeline", 2)])
def test_exported_problem_solved_in_repository(which, N, request, tmp_path):
    # in-repo counterpart of the external solve: the free-P certificate
    # exists at these orders, and its point, scaled up, satisfies every
    # block of the parsed exported file
    pipeline = request.getfixturevalue(which)
    path = tmp_path / f"solve{N}.dat-s"
    model = export(pipeline, N, path=path)
    cert, _ = ss.free_p_certificate(model, pipeline.reduced, 2.0)
    assert cert is not None and cert.feasible and cert.N == N
    margin = min(cert.p_min_eig, -cert.theta1_max_eig, cert.beta, cert.gamma,
                 -cert.theta2, cert.theta3)
    assert margin > 0
    prob = read_sdpa(path)
    x = np.append(cert.P[np.triu_indices(model.dim)], [cert.beta, cert.gamma])
    blocks = _materialize(prob, (10.0 * 1e-6 / margin) * x)
    for b, blk in enumerate(blocks):
        assert np.linalg.eigvalsh(0.5 * (blk + blk.T))[0] > 0, f"block {b + 1}"


@pytest.mark.parametrize("N", [2, 3])
def test_free_p_infeasible_reports_finite_margins(neumann_pipeline, N):
    # alpha just above the root of k(alpha): k > 0, but the exact ratio
    # alpha h^2 / k (6.33 at N = 2, 2.44 at N = 3) exceeds 1, so no P exists;
    # no point is returned, and the margin alpha h^2 / k - 1 is finite
    alpha, ratio = {2: (1.15, 6.33), 3: (1.1, 2.44)}[N]
    model = ss.assemble_closed_loop(neumann_pipeline.reduced, neumann_pipeline.gains, N)
    assert ss.certificate._beta_slope(neumann_pipeline.reduced, N, alpha) > 0
    cert, margin = ss.free_p_certificate(model, neumann_pipeline.reduced, alpha)
    assert cert is None
    assert margin == pytest.approx(ratio - 1.0, abs=5e-3)


def _constant_block(prob, b, dim):
    M = np.zeros((dim, dim))
    for (bb, i, j), v in prob.entries.get(0, {}).items():
        if bb == b:
            M[i - 1, j - 1] += v
            if i != j:
                M[j - 1, i - 1] += v
    return M


def _coef_block(mat, b, dim):
    M = np.zeros((dim, dim))
    hit = False
    for (bb, i, j), v in mat.items():
        if bb == b:
            hit = True
            M[i - 1, j - 1] += v
            if i != j:
                M[j - 1, i - 1] += v
    return M if hit else None
