"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from contactlab import algebra as A
from contactlab import dissipation as D
from contactlab import shapes as S
from contactlab.geometry import (
    MetricForm,
    PullbackForm,
    RoundForm,
    TrigForm,
    TrigTerm,
    tangent_frame,
)
from contactlab.maps import (
    CanonicalLift,
    ContactFlow,
    MomentumHamiltonian,
    ReebTranslation,
    Shear,
    identity_map,
    make_composite,
)
from contactlab.report import run, validate_config
from conftest import (
    abelian_rate,
    conformal_factor_batch,
    displacement_rate,
    fd_frame,
    full_grid,
    random_domain,
    random_point,
    sample_hyperbolic_lattice_matrices,
)

CAT = [[2, 1], [1, 1]]
CAT_S = math.log((3.0 + math.sqrt(5.0)) / 2.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(num: int, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"criterion {num}: FAIL (runtime {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)")
    print(f"criterion {num}: PASS ({elapsed:.1f}s)")


def test_criterion_1_spectral_bound_on_cat_map():
    with criterion(1, 30.0):
        f = make_composite([CanonicalLift(CAT)])
        r = D.r_sequence(f, RoundForm(), 30)  # default grids
        est = D.chi_estimate(r)
        chi = est.chi_hat
        assert 0.94 <= chi <= 0.99
        assert abs(chi - CAT_S) < 0.03
        res = D.verify_bound(f, est, D.classify(r, est))
        assert res["pass"] and res["verdict"] == "Hyperbolic"


def test_criterion_2_strict_shears_sharpness():
    with criterion(2, 10.0):
        grid = D.GridSpec(32, 32)  # 32 fiber x 32^2 base = 32^3 points
        u, q = full_grid(2, grid)
        for shear in (Shear(0), Shear(1)):
            f = make_composite([shear])
            c, _, _ = conformal_factor_batch(f, RoundForm(), u, q)
            assert np.max(np.abs(c - 1.0)) < 1e-9
            i_mat = f.homology_matrix
            periodic, _ = A.is_periodic(i_mat)
            assert not periodic
            block, _, _ = A.a_block(i_mat)
            assert block == A.identity_matrix(2)
            assert A.is_periodic(block) == (True, 1)


def test_criterion_3_conservative_maps_never_hyperbolic():
    with criterion(3, 30.0):
        grid = D.GridSpec(8, 32)
        shear_a, shear_b = Shear(0), Shear(1)
        rot = CanonicalLift([[0, -1], [1, 0]])
        reeb = ReebTranslation(0.3)
        conservative = [
            identity_map(2),
            make_composite([shear_a]),
            make_composite([shear_b]),
            make_composite([reeb]),
            make_composite([rot]),
            # conjugates by strict maps
            make_composite([shear_a.inverse(), reeb, shear_a]),
            make_composite([shear_b.inverse(), rot, shear_b]),
            make_composite([shear_a.inverse(), shear_b.inverse(), reeb, shear_b, shear_a]),
        ]
        for f in conservative:
            r = D.r_sequence(f, RoundForm(), 12, grid)
            verdict = D.classify(r, D.chi_estimate(r))
            assert verdict == "Elliptic-consistent", (f.describe(), verdict, r)


def test_criterion_4_abelian_growth_equals_spectrum():
    with criterion(4, 10.0):
        rng = np.random.default_rng(4)
        mats = sample_hyperbolic_lattice_matrices(
            rng, 2, 10
        ) + sample_hyperbolic_lattice_matrices(rng, 3, 10)
        for m in mats:
            k = len(m)
            classes = [
                tuple(int(c) for c in rng.integers(-2, 3, size=k)) for _ in range(4)
            ]
            classes = [g if any(g) else (1,) + (0,) * (k - 1) for g in classes]
            bar_s = abelian_rate(m, classes, 40)
            assert abs(bar_s - A.s_value(m)) <= 1e-2, (m, bar_s, A.s_value(m))


def test_criterion_5_free_group_growth():
    with criterion(5, 5.0):
        fib = A.FreeAutomorphism.from_strings(["ab", "a"])
        lengths = A.free_lengths(fib, A.parse_word("a"), 25, 10**6)
        rate = A.length_growth_rate(lengths)
        assert abs(rate - math.log((1 + math.sqrt(5)) / 2)) < 1e-3
        swap = A.FreeAutomorphism.from_strings(["b", "a"])
        lengths = A.free_lengths(swap, A.parse_word("ab"), 10, 10**6)
        assert A.length_growth_rate(lengths) == pytest.approx(0.0, abs=1e-9)


def test_criterion_6_shape_calculus():
    with criterion(6, 30.0):
        rng = np.random.default_rng(6)
        dirs = S.direction_grid(2)
        q_res = 32
        # delta metric axioms on 100 random triples
        for _ in range(100):
            a, b, c = (random_domain(rng, dirs) for _ in range(3))
            assert S.delta(a, b, dirs) == S.delta(b, a, dirs)
            assert S.delta(a, a, dirs) == 0.0
            assert S.delta(a, c, dirs) <= S.delta(a, b, dirs) + S.delta(b, c, dirs) + 1e-12
        # monotonicity and scaling, exact
        base = TrigForm(1.0, [TrigTerm(0.3, (1, 0))])
        bigger = TrigForm(1.4, [TrigTerm(0.3, (1, 0))])
        r1 = S.flat_shape(base, 2, q_res).rho(dirs)
        assert np.all(r1 <= S.flat_shape(bigger, 2, q_res).rho(dirs))
        scaled = TrigForm(2.0, [TrigTerm(0.6, (1, 0))])
        assert np.allclose(S.flat_shape(scaled, 2, q_res).rho(dirs), 2.0 * r1)
        # group-action law and linear-lift equivariance at 1e-3
        fine = S.direction_grid(2, 32768)
        smooth = S.StarDomain(2, lambda d: 1.0 + 0.3 * np.cos(2.0 * np.arctan2(d[:, 1], d[:, 0])))
        mats = [((1, 1), (0, 1)), ((1, 0), (-1, 1)), ((0, -1), (1, 0))]
        for i_mat in mats:
            for j_mat in mats:
                lhs = S.act(A.mat_mul(i_mat, j_mat), smooth)
                rhs = S.act(i_mat, S.act(j_mat, smooth))
                assert S.delta(lhs, rhs, fine) < 1e-3
        metric = MetricForm(np.array([[2.0, 0.5], [0.5, 1.0]]))
        lhs = S.flat_shape(PullbackForm(CAT, metric), 2, 4)
        rhs = S.act(A.mat_transpose(A.as_matrix(CAT)), S.flat_shape(metric, 2, 4))
        assert S.delta(lhs, rhs, fine) < 1e-3


def test_criterion_7_displacement_vs_spectrum():
    with criterion(7, 10.0):
        rng = np.random.default_rng(7)
        for dim, count in ((2, 5), (3, 5)):
            dirs = S.direction_grid(dim)
            ball = S.ball(dim)
            for m in sample_hyperbolic_lattice_matrices(rng, dim, count):
                val = displacement_rate(m, ball, 20, dirs)
                assert abs(val - A.s_value(m)) <= 1e-2, (m, val, A.s_value(m))


def test_criterion_8_duality_inequality():
    with criterion(8, 10.0):
        rng = np.random.default_rng(8)
        metrics = [np.eye(2), np.diag([4.0, 1.0])]
        for k in (2, 3):
            b = rng.normal(size=(k, k))
            metrics.append(b.T @ b + 0.5 * np.eye(k))
        for g in metrics:
            k = g.shape[0]
            classes = [
                tuple(int(c) for c in rng.integers(-3, 4, size=k)) for _ in range(6)
            ]
            classes = [v if any(v) else (1,) + (0,) * (k - 1) for v in classes]
            res = S.duality_check(g, classes, S.direction_grid(k))
            assert res["pass"] and res["worst_margin"] >= 0.0


def test_criterion_9_numerical_hygiene():
    with criterion(9, 60.0):
        rng = np.random.default_rng(9)
        # AD vs finite differences on every primitive kind: pushed tangent
        # frames against central differences along the same ambient vectors
        prim_sets = {
            2: [
                CanonicalLift(CAT),
                Shear(0),
                Shear(1),
                ReebTranslation(0.37),
                ContactFlow(MomentumHamiltonian([0.2, 0.5]), 1.0, steps=16),
            ],
            3: [
                CanonicalLift([[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
                ReebTranslation(0.37, n=3),
            ],
        }
        for n, prims in prim_sets.items():
            for prim in prims:
                f = make_composite([prim])
                for _ in range(3):
                    u, q = random_point(rng, n)
                    frame = tangent_frame(u)
                    pushed = f.push_frame(u, q, frame)[2][:, :, 0]
                    fd = fd_frame(f, u, q, frame)
                    scale = max(1.0, np.abs(fd).max())
                    assert np.abs(pushed - fd).max() / scale <= 1e-5
        # cocycle identity at 100 random points
        form = TrigForm(1.0, [TrigTerm(0.3, (1, 1))])
        g = make_composite([CanonicalLift(CAT), ReebTranslation(0.2)]).inverse()
        g2 = make_composite(list(g.primitives) * 2)
        for _ in range(100):
            u, q = random_point(rng, 2)
            lhs = conformal_factor_batch(g2, form, u, q)[0][0]
            c, gu, gq = conformal_factor_batch(g, form, u, q)
            rhs = conformal_factor_batch(g, form, gu, gq)[0][0] * c[0]
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        # grid-refinement doubling changes r_K by < 1%
        f = make_composite([CanonicalLift(CAT), ReebTranslation(0.2)])
        _, _, rel = D.refinement_delta(f, form, 10, D.GridSpec(8, 64))
        assert rel < 0.01


def test_criterion_10_determinism_of_bundled_configs(tmp_path):
    with criterion(10, 120.0):
        for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
            data = json.loads(cfg_path.read_text())
            docs = []
            for tag in ("a", "b"):
                out = tmp_path / cfg_path.stem / tag
                run(validate_config(data), out_dir=out)
                artifacts = {}
                for artifact in sorted(out.iterdir()):
                    if artifact.name == "document.json":
                        payload = json.loads(artifact.read_text())
                        payload["provenance"].pop("timestamp")
                        artifacts[artifact.name] = json.dumps(payload, sort_keys=True)
                    else:
                        artifacts[artifact.name] = artifact.read_bytes()
                docs.append(artifacts)
            assert docs[0] == docs[1], f"non-deterministic artifacts for {cfg_path.name}"
