import numpy as np
import pytest

from gfkanalogy.synth import SynthSpec, coordinate_scales, generate, random_rotation


class TestGenerate:
    def test_shapes_and_naming(self):
        spec = SynthSpec(n_relations=2, pairs_per_relation=5, dim=12, seed=0)
        table, ds = generate(spec)
        assert len(table) == 2 * 5 * 2
        assert table.dim == 12
        assert ds.relation_names() == ["rotation-0", "rotation-1"]
        assert ds.n_questions() == 2 * 5 * 4  # n(n-1) per relation
        q = ds.relations["rotation-0"][0]
        assert q.a.startswith("r0h") and q.b.startswith("r0t")

    def test_same_seed_reproducible(self):
        spec = SynthSpec(seed=42, n_relations=1, pairs_per_relation=4, dim=8)
        t1, d1 = generate(spec)
        t2, d2 = generate(spec)
        np.testing.assert_array_equal(t1.vectors, t2.vectors)
        assert t1.words == t2.words
        assert [q.tokens() for q in d1.relations["rotation-0"]] == [
            q.tokens() for q in d2.relations["rotation-0"]
        ]

    def test_different_seeds_differ(self):
        t1, _ = generate(SynthSpec(seed=1, n_relations=1, pairs_per_relation=4, dim=8))
        t2, _ = generate(SynthSpec(seed=2, n_relations=1, pairs_per_relation=4, dim=8))
        assert not np.array_equal(t1.vectors, t2.vectors)

    def test_noise_zero_tails_are_exact_rotations(self):
        spec = SynthSpec(n_relations=1, pairs_per_relation=6, dim=10, noise=0.0, seed=3)
        table, _ = generate(spec)
        # the generator's float64 draws, in its order; the table holds their float32 rounding
        rng = np.random.default_rng(3)
        rotation = random_rotation(rng, 10, spec.rotation_angle)
        heads = rng.standard_normal((6, 10)) * coordinate_scales(10, None)
        tails = heads @ rotation.T
        assert table.vectors.tobytes() == np.vstack([heads, tails]).astype(np.float32).tobytes()
        # rotations preserve norms and pairwise inner products
        np.testing.assert_allclose(
            np.linalg.norm(heads, axis=1), np.linalg.norm(tails, axis=1), atol=1e-10
        )
        np.testing.assert_allclose(heads @ heads.T, tails @ tails.T, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_relations=0)
        with pytest.raises(ValueError):
            SynthSpec(noise=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(pairs_per_relation=1)


class TestPrimitives:
    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(0)
        q = random_rotation(rng, 10, np.pi / 2)
        np.testing.assert_allclose(q @ q.T, np.eye(10), atol=1e-10)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-8)

    def test_rotation_angle_bounds_displacement(self):
        rng = np.random.default_rng(1)
        angle = 0.3
        q = random_rotation(rng, 12, angle)
        # every unit vector moves by at most the largest principal angle
        for _ in range(20):
            v = rng.standard_normal(12)
            v /= np.linalg.norm(v)
            assert v @ q @ v >= np.cos(angle) - 1e-12

    def test_scales_decay(self):
        s = coordinate_scales(20, tau=None)
        assert s[0] == 1.0
        assert np.all(np.diff(s) < 0)
        np.testing.assert_allclose(s[4] / s[0], np.exp(-1.0), atol=1e-12)
