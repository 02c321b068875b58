"""Protocol-level contracts: request validation and execute semantics.

The uniformity half is the point: every interval sampler — TreeWalk
(§3.2), Lemma-2 alias-augmented, Theorem-3 chunked, and the §8 EM
B-tree — must reject a bad sample size or an inverted interval with the
*same* exception types, both through its native ``sample(x, y, s)`` entry
and through the engine's request path.
"""

import pytest

from repro.em.em_range_sampler import EMRangeSampler
from repro.em.model import EMMachine
from repro.engine import QueryRequest, build
from repro.engine.demo import demo_build
from repro.engine.registry import REGISTRY
from repro.errors import EmptyQueryError

N = 64
KEYS = [float(i) for i in range(1, N + 1)]
X, Y = 8.0, 40.0

RANGE_SPECS = ["range.treewalk", "range.lemma2", "range.chunked", "range.em"]


def make(spec):
    if spec == "range.em":
        machine = EMMachine(block_size=8, memory_blocks=4)
        return EMRangeSampler(machine, KEYS, rng=1)
    return build(spec, keys=KEYS, rng=1)


class TestNativeValidationUniformity:
    """One ValueError/TypeError contract across every interval sampler."""

    @pytest.mark.parametrize("spec", RANGE_SPECS)
    @pytest.mark.parametrize("bad_s", [0, -1])
    def test_nonpositive_s_is_value_error(self, spec, bad_s):
        with pytest.raises(ValueError):
            make(spec).sample(X, Y, bad_s)

    @pytest.mark.parametrize("spec", RANGE_SPECS)
    @pytest.mark.parametrize("bad_s", [1.5, "3", None, True])
    def test_non_int_s_is_type_error(self, spec, bad_s):
        with pytest.raises(TypeError):
            make(spec).sample(X, Y, bad_s)

    @pytest.mark.parametrize("spec", RANGE_SPECS)
    def test_inverted_interval_is_value_error(self, spec):
        with pytest.raises(ValueError):
            make(spec).sample(Y, X, 4)

    @pytest.mark.parametrize("spec", RANGE_SPECS)
    def test_empty_interval_is_empty_query_error(self, spec):
        with pytest.raises(EmptyQueryError):
            make(spec).sample(X + 0.25, X + 0.75, 4)


class TestRequestValidation:
    def test_request_bad_s(self):
        with pytest.raises(ValueError):
            QueryRequest(s=0).validate()
        with pytest.raises(TypeError):
            QueryRequest(s=1.5).validate()
        with pytest.raises(TypeError):
            QueryRequest(s=True).validate()

    def test_request_bad_seed_and_args(self):
        with pytest.raises(TypeError):
            QueryRequest(seed="x").validate()
        with pytest.raises(TypeError):
            QueryRequest(args=[1, 2]).validate()

    @pytest.mark.parametrize("spec", ["range.treewalk", "range.chunked"])
    def test_execute_inverted_interval(self, spec):
        with pytest.raises(EmptyQueryError):
            make(spec).execute(QueryRequest(op="sample", args=(Y, X), s=4))

    def test_execute_unknown_op(self):
        with pytest.raises(ValueError, match="does not support op"):
            make("range.chunked").execute(QueryRequest(op="frobnicate", args=(X, Y)))


class TestExecuteSemantics:
    def test_seeded_execute_is_deterministic_per_state(self):
        request = QueryRequest(op="sample", args=(X, Y), s=6, seed=1234)
        first = make("range.chunked").execute(request)
        second = make("range.chunked").execute(request)
        assert first.values == second.values
        assert first.seed == second.seed == 1234

    def test_unseeded_execute_consumes_instance_stream(self):
        sampler = make("range.chunked")
        request = QueryRequest(op="sample", args=(X, Y), s=6)
        first = sampler.execute(request)
        second = sampler.execute(request)
        assert first.seed is None
        # Same instance, advancing stream: draws differ (w.h.p. for s=6).
        assert first.values != second.values

    def test_describe_reports_spec_and_ops(self):
        info = make("range.chunked").describe()
        assert info["spec"] == "range.chunked"
        assert "sample" in info["ops"]
        assert info["thread_safe"] is True
        assert info["size"] == N

    def test_result_unwrap(self):
        result = make("range.chunked").execute(
            QueryRequest(op="sample", args=(X, Y), s=3, seed=9)
        )
        assert result.ok
        assert len(result.unwrap()) == 3


class TestHostileRangeBounds:
    """NaN and non-comparable bounds fail at the validation boundary.

    Before the check, ``(nan, nan)`` sampled the whole key set,
    ``(nan, 10)`` acted like ``(-inf, 10)`` and ``(1, "a")`` leaked a raw
    ``TypeError`` from ``>``. Every range spec, local or sharded, now
    captures the same :class:`ValueError` naming the bad bound.
    """

    NAN = float("nan")

    @pytest.mark.parametrize("placement", ["local", "sharded"])
    @pytest.mark.parametrize(
        "spec", ["range.lemma2", "range.chunked", "range.treewalk", "range.naive"]
    )
    @pytest.mark.parametrize(
        "args,named",
        [
            ((NAN, NAN), "x=nan"),
            ((NAN, 10.0), "x=nan"),
            ((1.0, NAN), "y=nan"),
            ((1, "a"), "y='a'"),
        ],
        ids=["nan-nan", "nan-10", "1-nan", "1-str"],
    )
    def test_rejected_with_the_same_error_everywhere(self, spec, placement, args, named):
        from repro.engine import SamplingEngine

        request = QueryRequest(op="sample", args=args, s=3)
        with SamplingEngine(placement=placement, backend="serial", seed=1, shards=2) as engine:
            [result] = engine.run(make(spec), [request])
        assert type(result.error) is ValueError
        assert named in str(result.error)


class TestHostileRectangleBounds:
    """A NaN in any slot of a rectangle fails validation on every index.

    Before the check ``coverage.rangetree`` answered ``((nan, nan), (nan,
    nan))`` and a single NaN in either dimension with samples, while the
    kd-tree and the quadtree raised :class:`EmptyQueryError`.
    """

    NAN = float("nan")
    RECT = [[0.0, 3.5], [0.0, 3.5]]

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize(
        "spec", ["coverage.kdtree", "coverage.quadtree", "coverage.rangetree"]
    )
    @pytest.mark.parametrize(
        "slot",
        [None, (0, 0), (0, 1), (1, 0), (1, 1)],
        ids=["all", "x-lo", "x-hi", "y-lo", "y-hi"],
    )
    def test_rejected_with_the_same_error_everywhere(self, spec, backend, slot):
        from repro.engine import SamplingEngine

        if slot is None:
            rect = ((self.NAN, self.NAN), (self.NAN, self.NAN))
        else:
            bounds = [list(pair) for pair in self.RECT]
            bounds[slot[0]][slot[1]] = self.NAN
            rect = tuple(tuple(pair) for pair in bounds)
        sampler, _ = demo_build(spec)
        requests = [QueryRequest(op="sample", args=(rect,), s=3)] * 2
        with SamplingEngine(backend=backend, seed=1, max_workers=2) as engine:
            results = engine.run(sampler, requests)
        for result in results:
            assert type(result.error) is ValueError
            assert "is NaN" in str(result.error)
            assert result.values is None


class TestNativeHostileRangeBounds:
    """The same bound contract holds on the native entry points.

    Outside the engine nothing calls ``validate_request``, so before the
    check ``sampler.sample(nan, nan, s)`` sampled the whole key set and
    ``sample_without_replacement(nan, nan, s)`` returned ``s`` keys.
    """

    NAN = float("nan")
    RANGE_REGISTRY_SPECS = sorted(key for key in REGISTRY if key.startswith("range."))
    CASES = [
        (spec, method)
        for spec in RANGE_REGISTRY_SPECS
        for method in ("sample", "sample_indices", "sample_without_replacement")
        if hasattr(REGISTRY.resolve(spec), method)
    ]

    @pytest.mark.parametrize("spec,method", CASES)
    @pytest.mark.parametrize(
        "args",
        [(NAN, NAN), (NAN, 10.0), (1.0, NAN), (1.0, "a")],
        ids=["nan-nan", "nan-10", "1-nan", "1-str"],
    )
    def test_rejected_with_value_error(self, spec, method, args):
        sampler, _ = demo_build(spec)
        with pytest.raises(ValueError, match="NaN|not comparable"):
            getattr(sampler, method)(*args, 4)

    def test_every_range_spec_is_covered(self):
        assert len(self.RANGE_REGISTRY_SPECS) == 8
        assert {spec for spec, _ in self.CASES} == set(self.RANGE_REGISTRY_SPECS)
