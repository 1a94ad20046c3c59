"""Synthesizer correctness: accuracy, monotonicity, determinism, zero ε."""

import numpy as np
import pytest

from repro import obs
from repro.core.priview import PriView
from repro.exceptions import SynthesisError
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain
from repro.synth import RecordSampler, Synthesizer, domain_of, synthesize


@pytest.fixture(scope="module")
def cat_synopsis():
    dom = Domain.from_arities((2, 3, 4, 2, 5, 3))
    rng = np.random.default_rng(7)
    ds = Dataset.random(20_000, dom, rng=rng)
    return PriView(epsilon=2.0, seed=11).fit(ds)


@pytest.fixture(scope="module")
def binary_synopsis():
    ds = Dataset.random(10_000, 8, rng=np.random.default_rng(3))
    return PriView(epsilon=2.0, seed=5).fit(ds)


class TestDomainOf:
    def test_prefers_attached_domain(self, cat_synopsis):
        assert domain_of(cat_synopsis) is cat_synopsis.domain

    def test_falls_back_to_arities(self, cat_synopsis):
        bare = type(cat_synopsis)(
            views=cat_synopsis.views,
            arities=cat_synopsis.arities,
            epsilon=cat_synopsis.epsilon,
        )
        assert domain_of(bare).arities == cat_synopsis.arities

    def test_binary_synopsis(self, binary_synopsis):
        dom = domain_of(binary_synopsis)
        assert dom.is_binary
        assert dom.num_attributes == binary_synopsis.num_attributes

    def test_unknown_source_raises(self):
        with pytest.raises(SynthesisError):
            domain_of(object())


class TestSynthesizer:
    def test_l1_history_monotone_non_increasing(self, cat_synopsis):
        records = Synthesizer(seed=42).fit(cat_synopsis)
        history = records.meta["history"]
        assert len(history) >= 2
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(history, history[1:])
        )
        assert records.meta["final_l1"] == history[-1]

    def test_improves_over_init(self, cat_synopsis):
        records = Synthesizer(seed=42).fit(cat_synopsis)
        history = records.meta["history"]
        assert history[-1] < history[0]

    def test_deterministic_under_fixed_seed(self, cat_synopsis):
        a = Synthesizer(seed=9).fit(cat_synopsis)
        b = Synthesizer(seed=9).fit(cat_synopsis)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.meta["history"] == b.meta["history"]

    def test_seed_changes_population(self, cat_synopsis):
        a = Synthesizer(seed=1).fit(cat_synopsis)
        b = Synthesizer(seed=2).fit(cat_synopsis)
        assert not np.array_equal(a.data, b.data)

    def test_zero_epsilon_in_ledger(self, cat_synopsis):
        with obs.session() as sess:
            Synthesizer(seed=0, rounds=3).fit(cat_synopsis)
            rows = {row.name: row for row in sess.ledger.audit()}
        row = rows["Synthesizer.fit"]
        assert row.configured == 0.0
        assert row.spent_max == 0.0
        assert row.status == "exact"

    def test_covered_marginals_match_synopsis(self, cat_synopsis):
        records = synthesize(cat_synopsis, seed=4)
        n = records.num_records
        errors = []
        for view in cat_synopsis.views:
            target = records.marginal(view.attrs)
            probs = view.counts / max(view.total(), 1.0)
            errors.append(
                np.abs(target.counts - probs * n).sum() / n
            )
        assert float(np.mean(errors)) < 0.05

    def test_respects_num_records(self, cat_synopsis):
        records = synthesize(cat_synopsis, num_records=1234, seed=0)
        assert records.num_records == 1234

    @pytest.mark.parametrize("num_records", [0, -1, -500])
    def test_rejects_population_below_one(self, cat_synopsis, num_records):
        with pytest.raises(SynthesisError, match="num_records must be >= 1"):
            Synthesizer(seed=0).fit(cat_synopsis, num_records=num_records)

    @pytest.mark.parametrize(
        "min_alpha", [-1e-3, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_bad_min_alpha(self, min_alpha):
        with pytest.raises(SynthesisError, match="min_alpha"):
            Synthesizer(min_alpha=min_alpha)

    def test_zero_min_alpha_accepted(self, cat_synopsis):
        records = Synthesizer(rounds=3, min_alpha=0.0, seed=0).fit(
            cat_synopsis
        )
        assert records.meta["rounds"] <= 3

    def test_codes_within_arity(self, cat_synopsis):
        records = synthesize(cat_synopsis, seed=8)
        for j, b in enumerate(cat_synopsis.arities):
            assert records.data[:, j].min() >= 0
            assert records.data[:, j].max() < b

    def test_binary_synopsis_path(self, binary_synopsis):
        records = synthesize(binary_synopsis, seed=6)
        assert records.domain.is_binary
        assert records.data.max() <= 1
        history = records.meta["history"]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(history, history[1:])
        )


class TestSyntheticRecords:
    def test_count_and_fraction(self, cat_synopsis):
        records = synthesize(cat_synopsis, seed=3)
        name = records.domain.names[1]
        total = sum(
            records.count(**{name: v})
            for v in range(records.domain.arities[1])
        )
        assert total == records.num_records
        assert records.fraction(**{name: 0}) == (
            records.count(**{name: 0}) / records.num_records
        )

    def test_export_round_trip(self, cat_synopsis, tmp_path):
        records = synthesize(cat_synopsis, num_records=500, seed=3)
        csv_path = records.to_csv(tmp_path / "out.csv", decode=False)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == list(records.domain.names)
        assert len(lines) == 501
        jsonl_path = records.to_jsonl(tmp_path / "out.jsonl")
        assert len(jsonl_path.read_text().strip().splitlines()) == 500


class TestRecordSampler:
    def test_seeded_draws_reproduce(self, cat_synopsis):
        sampler = RecordSampler(synthesize(cat_synopsis, seed=1), seed=0)
        np.testing.assert_array_equal(
            sampler.sample(64, seed=5), sampler.sample(64, seed=5)
        )

    def test_unseeded_draws_differ(self, cat_synopsis):
        sampler = RecordSampler(synthesize(cat_synopsis, seed=1), seed=0)
        assert not np.array_equal(sampler.sample(256), sampler.sample(256))

    def test_batches_total(self, cat_synopsis):
        sampler = RecordSampler(synthesize(cat_synopsis, seed=1), seed=0)
        chunks = list(sampler.batches(1000, 300, seed=2))
        assert [len(c) for c in chunks] == [300, 300, 300, 100]
