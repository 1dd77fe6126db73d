"""Graph submanifolds: restricted forms, tangency residuals against the
linear-algebra oracle, the commuting frame and its identities, singular-set
scans and the graphical perturbation."""

import math
import re
import time
from importlib import resources

import numpy as np
import pytest

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol import germ as gm
from legfol import runner
from legfol import symplin as sl
from legfol.cli import demo_names
from legfol.fields import CompiledExprs, parse_field
from legfol.runner import run_scenario
from legfol.scenario import parse_scenario

from oracles import (
    build_Vk,
    embedding,
    principal_minor_residual,
    pullback,
    pushforward,
    values,
    zero_section_map,
)
from test_batched import scan_rows


class TestConstruction:
    def test_default_free_fibers(self):
        Y = co.graph_submanifold(3, 5)
        assert Y.free_y == (2, 3)
        assert Y.source_chart.var_names == ("x1", "x2", "x3", "y2", "y3")

    def test_unexpected_component_rejected(self):
        with pytest.raises(ValueError):
            co.graph_submanifold(2, 3, {"y2": 1.0})

    def test_restricted_form_hand_computed(self):
        src_names = ("x1", "x2", "y2")
        Y = co.graph_submanifold(
            2, 3, {"z": parse_field(co.graph_submanifold(2, 3).source_chart,
                                    "(x2^2 + y2^2) / 2")})
        lam = Y.lambda_form
        # lambda = dz - y1 dx1 - y2 dx2 = (x2 - y2) dx2 + y2 dy2
        p = [0.3, 0.8, -0.4]
        src = Y.source_chart
        c = lam.coeff_array([p])[0]  # dx1, dx2, dy2
        assert src.var_names == src_names
        assert c[0] == 0.0
        assert c[1] == pytest.approx(1.2)
        assert c[2] == pytest.approx(-0.4)

    @pytest.mark.parametrize("name", ["source_chart", "ambient", "embedding",
                                      "lambda_form"])
    def test_built_once(self, name):
        # Each is built on first read and kept: a second read reuses it.
        Y = co.graph_submanifold(2, 3)
        assert getattr(Y, name) is getattr(Y, name)
        assert getattr(Y, name) == getattr(co.graph_submanifold(2, 3), name)


def assert_restriction_is_pullback(lam, phi, omega, pts):
    """lam equals the oracle's phi^* omega bit for bit at pts: its
    coefficients, and its jet (coefficients and the matrix of d lam)."""
    want = pullback(phi, omega)
    assert lam.chart == want.chart
    assert np.array_equal(lam.coeff_array(pts), want.coeff_array(pts))
    for got, ref in zip(fm.jet(lam, pts), fm.jet(want, pts)):
        assert np.array_equal(got, ref)


def assert_graph_restriction(Y, rng):
    pts = rng.uniform(-0.9, 0.9, (200, Y.source_chart.dim))
    assert_restriction_is_pullback(Y.lambda_form, embedding(Y),
                                   co.standard_alpha(Y.n), pts)


class TestClosedFormRestrictions:
    """lambda on a graph and alpha on a germ's zero section are built in
    closed form; the oracle builds them as pullbacks through the inclusion.
    The two agree bit for bit on every bundled graph and germ."""

    @pytest.mark.parametrize("demo", demo_names())
    def test_bundled(self, demo, rng):
        sc = parse_scenario((resources.files("legfol") / "scenarios"
                             / f"{demo}.scn").read_text())
        env = runner._Env(sc, rng, runner._resolve(sc, {}))
        for b in sc.blocks:
            if b.kind == "graph":
                assert_graph_restriction(env.get("graph", b.name), rng)
            elif b.kind == "germ":
                try:
                    g = env.get("germ", b.name)
                except gm.GermBuildError:  # a refused build restricts nothing
                    continue
                base = g.restricted.chart
                assert_restriction_is_pullback(
                    g.restricted, zero_section_map(g), g.alpha,
                    rng.uniform(-0.9, 0.9, (200, base.dim)))

    @pytest.mark.parametrize("n, k, texts", [
        (3, 4, {"z": "(x3^2 - 1.5 * y3^2) / 2 + 0.4 * sin(x3) * y3"}),
        (3, 5, {"y1": "sin(x2 + y3) + x3 * y3", "z": "x1 * x2 + cos(y3)"}),
    ])
    def test_graphs(self, n, k, texts, rng):
        src = co.graph_submanifold(n, k).source_chart
        assert_graph_restriction(co.graph_submanifold(n, k, {
            key: parse_field(src, t) for key, t in texts.items()}), rng)


def graph_of(n, k, **texts):
    src = co.graph_submanifold(n, k).source_chart
    return co.graph_submanifold(
        n, k, {name: parse_field(src, t) for name, t in texts.items()})


def hypersurface(n, g_text):
    Y0 = co.graph_submanifold(n, n + 1)
    return co.graph_submanifold(
        n, n + 1, {"z": parse_field(Y0.source_chart, g_text)})


COISOTROPIC = {
    2: ["(x2^2 + y2^2) / 2", "sin(x2) * y2", "x2^3 - y2 + x2*y2^2"],
    3: ["(x3^2 + y3^2) / 2", "sin(x3) * y3"],
}
NON_COISOTROPIC = {
    2: [{"y1": "x1 * x2"}, {"z": "x1^2"}],
    3: [{"y1": "x1 * x3"}, {"z": "x1^2 + x2 * y3"}],
}


class TestResidualOracle:
    """The first-order residual system must agree pointwise with the
    independent linear-algebra classification of the tangent space."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_equivalence_on_samples(self, n, rng):
        families = [hypersurface(n, g) for g in COISOTROPIC[n]]
        for recipe in NON_COISOTROPIC[n]:
            Y0 = co.graph_submanifold(n, n + 1)
            comps = {key: parse_field(Y0.source_chart, val)
                     for key, val in recipe.items()}
            families.append(co.graph_submanifold(n, n + 1, comps))
        checked = 0
        for Y in families:
            pts = rng.uniform(-0.9, 0.9, (20, Y.source_chart.dim))
            for p in pts:
                res = co.residual_values(Y, [p])
                algebra = co.pointwise_coisotropy(Y, p)
                if algebra["singular"]:
                    continue
                assert (res["max_residual"][0] <= 1e-8) \
                    == bool(algebra["coisotropic"]), (Y.components, list(p))
                checked += 1
        assert checked >= 80

    def test_counterexample_value(self):
        Y0 = co.graph_submanifold(2, 3)
        Y = co.graph_submanifold(
            2, 3, {"y1": parse_field(Y0.source_chart, "x1 * x2")})
        res = co.residual_values(Y, [[1.0, 1.0, 0.0]])
        assert res["max_residual"][0] == pytest.approx(1.0, abs=1e-12)

    def test_surface_case_always_coisotropic(self, rng):
        # one-dimensional fibers: a line in a 2-plane is automatically
        # its own symplectic complement's superset
        Y = hypersurface(1, "x1^2 + y1")
        for p in rng.uniform(-0.9, 0.9, (10, 2)):
            algebra = co.pointwise_coisotropy(Y, p)
            if algebra["singular"]:
                continue
            assert algebra["coisotropic"]
            assert co.residual_values(Y, [p])["max_residual"][0] == 0.0


CLAIM_N1 = """\
graph surface
  n = 1
  k = 2
  z = {z}
end

check frame
  kind = claim
  target = surface
end
"""


class TestCommutingFrame:
    @pytest.mark.parametrize("n", [2, 3])
    def test_identities_hold(self, n, rng):
        Y = hypersurface(n, COISOTROPIC[n][0])
        pts = rng.uniform(-0.9, 0.9, (30, Y.source_chart.dim))
        res = co.verify_claim(Y, pts, tol=1e-10)
        assert not res["refused"]
        assert res["passed"]
        assert res["max_residual"] <= 1e-10

    def test_refusal_with_diagnostics(self, rng):
        Y0 = co.graph_submanifold(2, 3)
        Y = co.graph_submanifold(
            2, 3, {"y1": parse_field(Y0.source_chart, "x1 * x2")})
        pts = rng.uniform(0.5, 0.9, (10, 3))
        res = co.verify_claim(Y, pts)
        assert res["refused"]
        assert res["num_bad"] == 10
        assert res["diagnostics"]

    def test_alpha_annihilates_frame_numerically(self, rng):
        # independent check of i_V alpha = 0: pair the ambient covector of
        # alpha with the pushforward of each frame field via the Jacobian
        Y = hypersurface(2, COISOTROPIC[2][0])
        alpha = co.standard_alpha(2)
        tilde = build_Vk(Y)
        emb = embedding(Y)
        pts = rng.uniform(-0.9, 0.9, (10, 3))
        covecs = alpha.coeff_array(values(emb.components, pts))
        for Vt in tilde:
            pairing = np.einsum("pi,pi->p", covecs, pushforward(emb, Vt, pts))
            assert np.max(np.abs(pairing)) < 1e-10

    @pytest.mark.parametrize("z", ["0", "(x1^2 + y1^2) / 2"],
                             ids=["flat", "paraboloid"])
    def test_empty_frame_at_n1(self, z, rng):
        """At n = 1 the frame V_1 .. V_{n-1} is empty, so its identities hold
        vacuously: every residual is 0, and the claim check passes."""
        Y = hypersurface(1, z)
        pts = rng.uniform(-0.9, 0.9, (30, 2))
        frame = co.frame_residuals(Y, pts)
        assert frame["frame"].shape == (0, 2, 30)
        assert frame["bracket"].shape == (0, 2, 30)
        res = co.verify_claim(Y, pts)
        assert res["passed"] and not res["refused"]
        for key in ("i_V_alpha", "i_V_dlambda", "bracket", "lie_lambda",
                    "lambda_ab", "max_residual"):
            assert res[key] == 0.0
        (entry,) = run_scenario(parse_scenario(CLAIM_N1.format(z=z)))[
            "checks"]
        assert entry["ok"] and entry["detail"]["passed"]
        assert entry["detail"]["max_residual"] == 0.0

    def test_requires_standard_slice(self):
        Y = co.graph_submanifold(2, 3, free_y=(1,))
        with pytest.raises(co.NotStandardModel):
            co.residual_values(Y, [[0.0, 0.0, 0.0]])


UNDEFINED_GRAPH = """\
graph undefined
  n = 2
  k = 3
  z = 1 / (x1 - x1)
end
""" + "".join(f"""
check {kind}
  kind = {kind}
  target = undefined
end
""" for kind in ("claim", "residuals", "char-foliation", "scan"))


def test_undefined_component_is_an_error_of_every_graph_check():
    """z = 1 / 0 everywhere.  residuals, char-foliation and scan read only
    its derivatives, which are defined; every check still evaluates z at
    its samples, or on its grid, and reports the same fault.
    (0 * (1 / (x1 - x1)) folds to the constant 0 when parsed, so no
    evaluation can see it.)"""
    report = run_scenario(parse_scenario(UNDEFINED_GRAPH))
    assert not report["passed"]
    for entry in report["checks"]:
        assert not entry["ok"]
        assert entry["detail"] == {"passed": False, "refused": False}
        assert entry["error"].startswith("EvaluationError: row 0, point [")
        assert entry["error"].endswith("]: division by zero")


class TestSingularScan:
    def test_hypersurface_model(self):
        Y = hypersurface(2, "(x2^2 + y2^2) / 2")
        res = co.singular_scan(Y, box=0.6, step=0.1)
        assert len(res.clusters) == 1
        assert res.dims == (1,)
        assert res.flags == ("generic",)

    def test_flat_legendrian_plane(self):
        Y = co.legendrian_model(2)
        res = co.singular_scan(Y, box=0.6, step=0.1)
        assert res.dims == (2,)
        assert res.flags == ("perturbable-legendrian",)

    def test_no_hits_when_nonvanishing(self):
        Y0 = co.graph_submanifold(2, 3)
        Y = co.graph_submanifold(
            2, 3, {"z": parse_field(Y0.source_chart, "x1")})
        # lambda = (1 - y1) dx1 + ... with y1 = 0 on the graph: dx1 term
        # never vanishes
        res = co.singular_scan(Y, box=0.6, step=0.1)
        assert res.num_hits == 0

    def test_normal_data_at_model_singularity(self):
        Y = hypersurface(2, "(x2^2 + y2^2) / 2")
        data = co.singular_normal_data(Y, [0.3, 0.0, 0.0])
        assert data["singular"]
        assert data["rank"] == 2
        assert data["generic"]


def cluster(cells):
    """The scan's clustering of distinct integer cells: groups ordered by
    their smallest index, members ascending."""
    return co._groups(co._link(cells))


def union_find_clusters(points, radius):
    """O(m^2) single-linkage clustering within radius: the oracle for
    cluster, exact at radius 3 on integer cells."""
    m = len(points)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    r2 = radius * radius
    for i in range(m):
        d2 = np.sum((points[i + 1:] - points[i]) ** 2, axis=1)
        for off in np.nonzero(d2 <= r2)[0]:
            ra, rb = find(i), find(i + 1 + off)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def grid_cells(hits, box, step):
    """The integer grid indices of scan hits."""
    return np.rint((hits + box) / step).astype(np.int64)


def lattice(lo, hi, dim):
    """Every integer cell of [lo, hi]^dim, in lexicographic order."""
    axes = np.meshgrid(*[np.arange(lo, hi + 1)] * dim, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


class TestCluster:
    """cluster on integer cells against the union-find oracle at radius 3,
    which is exact on small integers."""

    def test_flat_plane_hits(self):
        step = 0.05
        hits = co.singular_scan(co.legendrian_model(2), box=1.0, step=step).hits
        assert len(hits) == 1681
        cells = grid_cells(hits, 1.0, step)
        assert cluster(cells) == union_find_clusters(cells, 3)

    @pytest.mark.parametrize("m, dim, radius", [
        (300, 2, 0.08), (500, 3, 0.15), (200, 1, 0.01),
        (300, 4, 0.45), (200, 5, 0.7), (150, 6, 0.9)])
    def test_random_clouds(self, m, dim, radius, rng):
        """A uniform cloud snapped to a grid of step radius / 3, so that the
        join distance is radius; repeats of a cell are dropped, as a scan
        has none, and the rest stay in random order."""
        cells = np.floor(rng.uniform(-1, 1, (m, dim)) / (radius / 3))
        _, first = np.unique(cells, axis=0, return_index=True)
        cells = cells[np.sort(first)].astype(np.int64)
        got = cluster(cells)
        assert got == union_find_clusters(cells, 3)
        assert 1 < len(got) < len(cells)

    def test_pairs_at_exactly_radius_join(self):
        """Offsets with d.d = 9 and 8 join; d.d = 10 and 12 do not."""
        cells = np.array([[0, 0], [3, 0], [10, 0], [12, 2], [20, 0], [23, 1],
                          [30, 0], [30, -3]])
        assert cluster(cells) == [[0, 1], [2, 3], [4], [5], [6, 7]]
        cells = np.array([[0, 0, 0], [2, 2, 1], [10, 0, 0], [12, 2, 2]])
        assert cluster(cells) == [[0, 1], [2], [3]]

    @pytest.mark.parametrize("fill", [0.5, 0.1, 0.3])
    def test_cell_boundaries(self, fill, rng):
        """Cells at multiples of three steps, negative ones included, so
        that axis neighbours join at exactly d.d = 9 and diagonal ones stay
        apart; a share fill of them is kept, always with the corners, which
        sit on the first and last index of the slot table's box."""
        cells = 3 * lattice(-4, 4, 3)
        corner = np.all(np.abs(cells) == 12, axis=1)
        cells = cells[corner | (rng.uniform(size=len(cells)) < fill)]
        got = cluster(cells)
        assert got == union_find_clusters(cells, 3)
        assert 1 < len(got) < len(cells)
        flat = cells[cells[:, 2] == 0]  # one axis spans a single index
        assert cluster(flat) == union_find_clusters(flat, 3)

    def test_radius_beyond_the_cloud(self, rng):
        """Clouds whose every neighbour is within three steps, in random
        order: one cluster."""
        cells = rng.permutation(lattice(0, 1, 4))
        assert cluster(cells) == [list(range(16))]
        line = rng.permutation(120)[:, None]
        assert cluster(line) == [list(range(120))]

    def test_scan_grid_three_step_pairs(self):
        """Every third scan-grid point on each axis of the box-2 plane:
        neighbours are exactly three steps apart, so all of them join,
        whatever rounding does to their float distances."""
        step = 0.05
        hits = co.singular_scan(co.legendrian_model(2), box=2.0,
                                step=step).hits
        cells = grid_cells(hits, 2.0, step)
        cells = cells[np.all(cells[:, :2] % 3 == 0, axis=1)]
        assert len(cells) == 729
        got = cluster(cells)
        assert got == union_find_clusters(cells, 3)
        assert got == [list(range(729))]

    @pytest.mark.parametrize("m", [0, 1])
    def test_tiny_inputs(self, m):
        cells = np.zeros((m, 3), dtype=np.int64)
        assert cluster(cells) == union_find_clusters(cells, 3)


THREE_STEPS = """\
graph lines
  n = 2
  k = 3
  z = y2 * x2 * (x2 - {c!r})
end

check joined
  kind = scan
  target = lines
  box = {box}
  step = {step}
  clusters = 1
end
"""


@pytest.mark.parametrize("box, step", [
    (1.0, 0.05), (2.0, 0.05), (0.8, 0.05), (1.0, 0.1)])
def test_singular_lines_three_steps_apart_are_one_component(box, step):
    """Two singular lines, x2 = 0 and x2 = 3 * step, on any grid: their hits
    are exactly three steps apart and join."""
    text = THREE_STEPS.format(c=3 * step, box=box, step=step)
    (entry,) = run_scenario(parse_scenario(text))["checks"]
    assert entry["detail"]["clusters"] == 1
    assert entry["ok"]


class TestBundledScans:
    """singular_scan on the bundled scan demos' graphs, with the values the
    cKDTree clustering gave."""

    def test_flat_legendrian_plane(self):
        res = co.singular_scan(co.legendrian_model(2))
        assert res.num_hits == 1681
        assert res.clusters == (tuple(range(1681)),)
        assert res.dims == (2,)

    def test_paraboloid_curve(self):
        res = co.singular_scan(hypersurface(2, "(x2^2 + y2^2) / 2"))
        assert res.num_hits == 41
        assert res.clusters == (tuple(range(41)),)
        assert res.dims == (1,)

    def test_bump_clears_the_plane(self):
        Y = co.legendrian_model(2)
        bump = parse_field(Y.source_chart, "0.1 * y1 * exp(0 - y1^2)")
        res = co.singular_scan(co.perturb_legendrian(Y, bump))
        assert (res.num_hits, res.clusters, res.dims) == (0, (), ())


def test_clean_scan_assembles_no_rows(monkeypatch):
    """A scan with no fault evaluates the generated function on the grid's
    columns: the default grid of every bundled scan graph makes no call to
    CompiledExprs.batch, which assembles an (N, m) array of rows."""
    Y = co.legendrian_model(2)
    bump = parse_field(Y.source_chart, "0.1 * y1 * exp(0 - y1^2)")
    targets = (Y, hypersurface(2, "(x2^2 + y2^2) / 2"),
               co.perturb_legendrian(Y, bump))
    calls = []
    monkeypatch.setattr(CompiledExprs, "batch",
                        lambda self, points: calls.append(len(points)))
    for target in targets:
        assert co.singular_scan(target).hits.shape[1] == 3
    assert calls == []


class TestPerturbation:
    def test_bump_removes_all_zeros(self, rng):
        Y = co.legendrian_model(2)
        src = Y.source_chart
        bump = parse_field(src, "0.1 * y1 * exp(-(y1^2))")
        Yp = co.perturb_legendrian(Y, bump)
        res = co.singular_scan(Yp, box=0.8, step=0.1)
        assert res.num_hits == 0
        pts = rng.uniform(-0.9, 0.9, (50, 3))
        assert np.max(np.abs(fm.frobenius(*Yp.lambda_jet(pts)))) <= 1e-10

    def test_sup_norm_is_delta_scale(self, rng):
        Y = co.legendrian_model(2)
        src = Y.source_chart
        bump = parse_field(src, "0.1 * y1 * exp(-(y1^2))")
        Yp = co.perturb_legendrian(Y, bump)
        pts = rng.uniform(-1, 1, (200, 3))
        assert co.perturbation_sup_norm(Y, Yp, pts) <= 0.1

    def test_flat_bump_rejected(self):
        Y = co.legendrian_model(2)
        bump = parse_field(Y.source_chart, "y1^3")
        with pytest.raises(ValueError, match="does not clear"):
            co.perturb_legendrian(Y, bump)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_high_n_check(self, n, monkeypatch):
        """The bump reads y1 alone, so the scan evaluates 41 points of the
        41^(n+1) grid, in one call, and, with no hit there, builds nothing
        over the full grid (at n = 5 its hit mask alone would take
        4.4 GiB)."""
        text = f"check bump\n  kind = perturb\n  n = {n}\nend\n"
        rows = scan_rows(monkeypatch)
        (entry,) = run_scenario(parse_scenario(text))["checks"]
        assert rows == [41]
        assert entry["ok"] and "error" not in entry
        assert entry["detail"]["num_hits"] == 0

    def test_zero_bump_is_identity(self):
        Y = co.legendrian_model(2)
        assert co.perturb_legendrian(
            Y, parse_field(Y.source_chart, "0")) is Y


class TestCharFoliation:
    @pytest.mark.parametrize("n,k", [(2, 3), (2, 4), (3, 4), (3, 5), (3, 6)])
    def test_kernel_dimension_flat_graphs(self, n, k, rng):
        Y = co.graph_submanifold(n, k)
        pts = rng.uniform(-0.9, 0.9, (20, Y.source_chart.dim))
        res = co.char_foliation_form(Y, pts)
        assert res["expected_kernel_dim"] == 2 * n - k + 1
        assert res["kernel_ok"]
        assert res["integrability_residual"] <= 1e-8
        assert res["samples_used"] > 0

    def test_curved_hypersurface(self, rng):
        Y = hypersurface(2, "(x2^2 + y2^2) / 2")
        pts = rng.uniform(-0.9, 0.9, (20, 3))
        res = co.char_foliation_form(Y, pts)
        assert res["kernel_ok"]
        assert res["integrability_residual"] <= 1e-8

    def test_pivot_residual_against_the_minors(self):
        """m! |p_1 ... p_m| from skew_rank's pivots, which char_foliation_form
        reports, against the largest m! |Pf| of a principal 2m-minor
        (oracles.principal_minor_residual) on seeded skew matrices of every
        size d = k - 1 up to 8: never above it, equal to it at m = 1 and at
        2m = d, and at most the pinned factor below it otherwise."""
        rng = np.random.default_rng(20261020)
        worst = 0.0
        for d in range(2, 9):
            for m in range(1, d // 2 + 1):
                A = rng.normal(size=(200, d, d))
                S = A - A.transpose(0, 2, 1)
                _, pivots = sl.skew_rank(S, 1e-8, m)
                ratio = principal_minor_residual(S, m) / (
                    math.factorial(m) * np.prod(pivots, axis=0))
                assert ratio.min() >= 1 - 1e-13, (d, m)
                if m == 1 or 2 * m == d:
                    assert ratio.max() <= 1 + 1e-13, (d, m)
                worst = max(worst, ratio.max())
        assert worst == pytest.approx(2.3869301534071394, rel=1e-9)

    def test_residual_on_a_graph(self, rng):
        """On a graph that fails integrability with 2m < k - 1 (n = 4,
        k = 6), the reported residual is the largest pivot product over the
        samples, nonzero, and at most the minors' largest."""
        Y = graph_of(4, 6, z="x1 * y4 + x2 * y3 * y4 + sin(x3) * y3")
        pts = rng.uniform(-0.9, 0.9, (30, 6))
        got = co.char_foliation_form(Y, pts)["integrability_residual"]
        S = sl.restrict_to_kernel(*Y.lambda_jet(pts)).transpose(2, 0, 1)
        _, pivots = sl.skew_rank(S, 1e-8, 2)
        assert got == 2 * np.max(np.abs(np.prod(pivots, axis=0)))
        assert 0.01 < got <= np.max(principal_minor_residual(S, 2))

    def test_large_dimension(self):
        """n = 14, k = 21: the principal-minor loop took 4.5 s over its
        C(20, 14) = 38,760 minors per sample; the pivots take one
        elimination."""
        Y = co.graph_submanifold(14, 21)
        pts = np.random.default_rng(3).uniform(-0.9, 0.9, (40, 21))
        co.char_foliation_form(Y, pts)  # compiles the graph's jet
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            res = co.char_foliation_form(Y, pts)
            elapsed.append(time.perf_counter() - start)
        assert res["kernel_ok"] and res["integrability_residual"] <= 1e-8
        assert min(elapsed) < 0.1


class TestOneBatch:
    """What each graph check evaluates and calls."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """CompiledExprs.batch, counted."""
        calls = []
        batch = CompiledExprs.batch

        def counted(self, points):
            calls.append(np.shape(points))
            return batch(self, points)

        monkeypatch.setattr(CompiledExprs, "batch", counted)
        return calls

    @pytest.mark.parametrize("texts, refused", [
        ({"z": "(x2^2 + y2^2) / 2"}, False), ({"y1": "x1 * x2"}, True)])
    def test_claim_is_one_batch(self, texts, refused, batches, rng):
        Y = graph_of(2, 3, **texts)
        pts = rng.uniform(-0.9, 0.9, (25, 3))
        assert co.verify_claim(Y, pts)["refused"] == refused
        assert batches == [(25, 3)]

    def test_char_foliation_reads_pivots(self, monkeypatch, rng):
        def no_det(*args):
            raise AssertionError("np.linalg.det called")

        calls = []
        skew_rank = sl.skew_rank

        def counted(*args):
            calls.append(args[1:])
            return skew_rank(*args)

        monkeypatch.setattr(np.linalg, "det", no_det)
        monkeypatch.setattr(sl, "skew_rank", counted)
        Y = graph_of(3, 5, z="x1 * y3 + x2^2 * y2")
        res = co.char_foliation_form(Y, rng.uniform(-0.9, 0.9, (25, 5)))
        assert res["samples_used"] == 25
        assert calls == [(1e-8, 2)]

    def test_extraction_reads_the_shared_frame(self, monkeypatch, rng):
        calls = []
        frame = co.frame_residuals

        def counted(Y, points):
            calls.append(len(points))
            return frame(Y, points)

        monkeypatch.setattr(co, "frame_residuals", counted)
        Y = hypersurface(2, "(x2^2 + y2^2) / 2")
        res = bd.extract_flat_structure(Y, rng.uniform(-0.4, 0.4, (10, 3)))
        assert calls == [10]
        assert res["membership_residual"] <= 1e-10

    def test_residuals_reject_points_of_another_width(self):
        """Six points of width 2 at n = 2 are no three points of width 3,
        for residual_values as for the other graph checks."""
        Y = hypersurface(2, "(x2^2 + y2^2) / 2")
        pts = np.zeros((6, 2))
        for check in (co.residual_values, co.verify_claim,
                      co.char_foliation_form):
            with pytest.raises(ValueError, match=re.escape(
                    "points have shape (6, 2), expected (N, 3)")):
                check(Y, pts)
