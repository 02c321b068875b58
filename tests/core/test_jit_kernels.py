"""Tier-equivalence harness for the compiled (jit) kernel tier.

The dispatch ladder is scalar → numpy → jit, and the contract per kernel
(docs/ARCHITECTURE.md) is:

* ``alias_draw`` / ``bst_topdown`` — counter-based randomness, so the
  jit stream differs from the numpy tier's ``Generator`` stream;
  equivalence across tiers is **distributional** (chi-square against the
  exact target), while same-seed runs are byte-reproducible.
* ``rejection_accept`` — uniforms always come from the caller's
  ``Generator``; **byte-identical** across tiers.
* ``vose_finish`` — no randomness; the builders using it are
  **byte-identical** across tiers.
* ``segmented_cumsum`` — same sums up to cumsum rounding (allclose).

The numpy *reference twins* in :mod:`repro.core.kernels_jit` compute the
compiled kernels' exact streams, so the jit algorithms are testable
without numba; the compiled-vs-reference byte checks themselves run only
under the ``[jit]`` extra (``importorskip("numba")``).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import kernels, kernels_jit
from repro.stats.tests import chi_square_weighted_pvalue

ALPHA = 1e-6
DRAWS = 30_000


@pytest.fixture
def force_jit(monkeypatch):
    """Route batched kernel calls through the jit tier regardless of numba.

    Without numba the tier's entry points are the numpy reference twins,
    which compute the identical streams the compiled loops would.
    """
    monkeypatch.setattr(kernels, "HAVE_JIT", True)


def make_tables(n=64, seed=5):
    gen = np.random.default_rng(seed)
    weights = gen.random(n) + 0.05
    prob, alias = kernels.build_alias_tables_batch(weights)
    return weights, prob, alias


def table_masses(prob, alias):
    """Exact per-element mass implied by an urn table."""
    n = len(prob)
    masses = prob.copy() / n
    for urn in range(n):
        if prob[urn] < 1.0:
            masses[alias[urn]] += (1.0 - prob[urn]) / n
    return masses


class TestAliasDraw:
    def test_jit_stream_matches_table_distribution(self):
        _, prob, alias = make_tables()
        out = np.empty(DRAWS, dtype=np.intp)
        kernels_jit.alias_draw(prob, alias, 12345, out)
        masses = table_masses(prob, alias)
        pvalue = chi_square_weighted_pvalue(
            out.tolist(), {i: masses[i] for i in range(len(prob))}
        )
        assert pvalue > ALPHA

    def test_same_seed_is_byte_reproducible(self):
        _, prob, alias = make_tables()
        first = np.empty(2048, dtype=np.intp)
        second = np.empty(2048, dtype=np.intp)
        kernels_jit.alias_draw(prob, alias, 99, first)
        kernels_jit.alias_draw(prob, alias, 99, second)
        assert np.array_equal(first, second)
        kernels_jit.alias_draw(prob, alias, 100, second)
        assert not np.array_equal(first, second)

    def test_entry_point_dispatches_to_jit(self, force_jit):
        _, prob, alias = make_tables()
        size = max(kernels.JIT_MIN_SIZE, 4096)
        out = kernels.alias_draw_batch(prob, alias, size, np.random.default_rng(1))
        masses = table_masses(prob, alias)
        pvalue = chi_square_weighted_pvalue(
            out.tolist(), {i: masses[i] for i in range(len(prob))}
        )
        assert pvalue > ALPHA


class TestBstTopdown:
    def make_tree(self, n=32, seed=3):
        from repro.substrates.bst import StaticBST

        gen = np.random.default_rng(seed)
        keys = [float(i) for i in range(n)]
        weights = (gen.random(n) + 0.1).tolist()
        tree = StaticBST(keys, weights)
        left, right, node_weight, _ = tree.packed_arrays()
        return (
            tree,
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(node_weight, dtype=np.float64),
            weights,
        )

    def test_walk_matches_weight_distribution(self):
        tree, left, right, node_weight, weights = self.make_tree()
        out = np.full(DRAWS, tree.root, dtype=np.intp)
        visits = kernels_jit.bst_topdown(
            left, right, node_weight, out.copy(), 77, -1, out
        )
        # Every walk descends from the root to one of n leaves.
        assert visits >= DRAWS  # at least one step per token
        leaf_of = {int(tree.leaf_node(i)): i for i in range(len(weights))}
        samples = [leaf_of[int(node)] for node in out]
        pvalue = chi_square_weighted_pvalue(
            samples, {i: w for i, w in enumerate(weights)}
        )
        assert pvalue > ALPHA

    def test_same_seed_is_byte_reproducible(self):
        tree, left, right, node_weight, _ = self.make_tree()
        starts = np.full(1024, tree.root, dtype=np.intp)
        first = starts.copy()
        second = starts.copy()
        kernels_jit.bst_topdown(left, right, node_weight, starts.copy(), 7, -1, first)
        kernels_jit.bst_topdown(left, right, node_weight, starts.copy(), 7, -1, second)
        assert np.array_equal(first, second)


class TestByteIdenticalTiers:
    def test_rejection_accept_identical_across_tiers(self, monkeypatch):
        gen_seed = 31
        acceptance = np.random.default_rng(2).random(4096)
        monkeypatch.setattr(kernels, "HAVE_JIT", False)
        numpy_tier = kernels.rejection_accept_batch(
            acceptance, np.random.default_rng(gen_seed)
        )
        monkeypatch.setattr(kernels, "HAVE_JIT", True)
        jit_tier = kernels.rejection_accept_batch(
            acceptance, np.random.default_rng(gen_seed)
        )
        assert np.array_equal(numpy_tier, jit_tier)

    def test_alias_builders_identical_across_tiers(self, monkeypatch):
        gen = np.random.default_rng(4)
        weights = (gen.zipf(1.5, size=5000) + gen.random(5000)).astype(np.float64)
        monkeypatch.setattr(kernels, "HAVE_JIT", False)
        prob_np, alias_np = kernels.build_alias_tables_batch(weights)
        monkeypatch.setattr(kernels, "HAVE_JIT", True)
        prob_jit, alias_jit = kernels.build_alias_tables_batch(weights)
        assert np.array_equal(prob_np, prob_jit)
        assert np.array_equal(alias_np, alias_jit)

    def test_flat_builders_identical_across_tiers(self, monkeypatch):
        gen = np.random.default_rng(6)
        lengths = gen.integers(1, 40, size=200)
        values = gen.random(int(lengths.sum())) + 0.01
        monkeypatch.setattr(kernels, "HAVE_JIT", False)
        prob_np, alias_np = kernels.build_alias_tables_flat(values, lengths)
        monkeypatch.setattr(kernels, "HAVE_JIT", True)
        prob_jit, alias_jit = kernels.build_alias_tables_flat(values, lengths)
        assert np.array_equal(prob_np, prob_jit)
        assert np.array_equal(alias_np, alias_jit)

    def test_segmented_cumsum_allclose_across_tiers(self, monkeypatch):
        gen = np.random.default_rng(8)
        values = gen.random(3000)
        segments = np.sort(gen.integers(0, 50, size=3000))
        monkeypatch.setattr(kernels, "HAVE_JIT", False)
        numpy_tier = kernels._segmented_cumsum(values, segments)
        monkeypatch.setattr(kernels, "HAVE_JIT", True)
        jit_tier = kernels._segmented_cumsum(values, segments)
        assert np.allclose(numpy_tier, jit_tier)


class TestDispatchLadder:
    def test_use_jit_honours_cutoff(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_JIT", True)
        assert kernels.use_jit(kernels.JIT_MIN_SIZE)
        assert not kernels.use_jit(kernels.JIT_MIN_SIZE - 1)
        monkeypatch.setattr(kernels, "HAVE_JIT", False)
        assert not kernels.use_jit(10**9)

    def test_disable_env_kills_jit_tier(self):
        # HAVE_JIT is resolved at import time, so probe a fresh interpreter.
        env = dict(os.environ, REPRO_DISABLE_JIT="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in (os.path.join(os.getcwd(), "src"),)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.core import kernels; print(kernels.HAVE_JIT)",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.strip() == "False"

    def test_dispatch_counters(self, force_jit, metrics_on):
        _, prob, alias = make_tables()
        kernels.alias_draw_batch(prob, alias, 4096, np.random.default_rng(1))
        counters = metrics_on.snapshot()["counters"]
        assert counters.get("kernels.dispatch.jit", 0) >= 1
        kernels.use_batch(1)  # below BATCH_MIN_SIZE -> scalar rung
        counters = metrics_on.snapshot()["counters"]
        assert counters.get("kernels.dispatch.scalar", 0) >= 1


@pytest.mark.skipif(
    not kernels_jit.HAVE_NUMBA, reason="requires the [jit] extra (numba)"
)
class TestCompiledMatchesReference:
    """Byte-identity of compiled loops vs their numpy twins ([jit] extra)."""

    def test_alias_draw_compiled_equals_ref(self):
        _, prob, alias = make_tables(128)
        compiled = np.empty(8192, dtype=np.intp)
        reference = np.empty(8192, dtype=np.intp)
        kernels_jit.alias_draw(prob, alias, 424242, compiled)
        kernels_jit.alias_draw_ref(prob, alias, 424242, reference)
        assert np.array_equal(compiled, reference)

    def test_bst_topdown_compiled_equals_ref(self):
        from repro.substrates.bst import StaticBST

        gen = np.random.default_rng(11)
        n = 100
        tree = StaticBST([float(i) for i in range(n)], (gen.random(n) + 0.1).tolist())
        left, right, node_weight, _ = tree.packed_arrays()
        left = np.asarray(left, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        node_weight = np.asarray(node_weight, dtype=np.float64)
        starts = np.full(4096, tree.root, dtype=np.intp)
        compiled = starts.copy()
        reference = starts.copy()
        visits_c = kernels_jit.bst_topdown(
            left, right, node_weight, starts.copy(), 55, -1, compiled
        )
        visits_r = kernels_jit.bst_topdown_ref(
            left, right, node_weight, starts.copy(), 55, -1, reference
        )
        assert visits_c == visits_r
        assert np.array_equal(compiled, reference)

    def test_vose_finish_compiled_equals_ref(self):
        gen = np.random.default_rng(13)
        n = 500
        ids = np.arange(n, dtype=np.intp)
        masses = (gen.random(n) * 2.0).astype(np.float64)
        outs = [
            (np.empty(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=np.intp))
            for _ in range(2)
        ]
        emitted_c = kernels_jit.vose_finish(ids, masses.copy(), *outs[0])
        emitted_r = kernels_jit.vose_finish_ref(ids, masses.copy(), *outs[1], 0)
        assert emitted_c == emitted_r
        for compiled, reference in zip(outs[0], outs[1]):
            assert np.array_equal(compiled[:emitted_c], reference[:emitted_r])

    def test_warmup_compiles_without_error(self):
        kernels_jit.warmup()
