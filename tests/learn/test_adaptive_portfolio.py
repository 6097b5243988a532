"""Golden guarantees of the adaptive portfolio (repro.learn x portfolio).

The load-bearing test is :func:`TestGolden.test_topk_all_equals_exhaustive`:
``select="adaptive"`` with ``top_k >= len(members)`` must reproduce the
exhaustive run **byte for byte** (same rows, same table body) — adaptive
mode is a strict subset of exhaustive work, never different work.
"""

from __future__ import annotations

import warnings

import pytest

from repro.dag.analysis import assign_random_memory_weights
from repro.dag.generators import spmv
from repro.exceptions import ConfigurationError
from repro.exec import Session
from repro.experiments.runner import ExperimentConfig
from repro.learn import mine_history
from repro.portfolio import Portfolio, format_portfolio_table


CONFIG = ExperimentConfig(name="portfolio", num_processors=4)
#: heuristic-only members: the whole module runs without an ILP dispatch
MEMBERS = ["bspg+clairvoyant", "cilk+lru", "etf+clairvoyant"]


@pytest.fixture(scope="module")
def dags():
    # sizes spread far enough apart that every instance lands in its own
    # feature bucket: per-bucket greedy then equals the per-instance winner,
    # which is what makes the top-1 regret assertions exact
    out = []
    for i, size in enumerate((3, 8, 20)):
        dag = spmv(size, seed=i)
        assign_random_memory_weights(dag, seed=i)
        out.append(dag)
    return out


@pytest.fixture(scope="module")
def ground_truth(dags, tmp_path_factory):
    """(exhaustive rows, mined history) shared by the whole module."""
    results = tmp_path_factory.mktemp("adaptive-golden") / "results.jsonl"
    session = Session(workers=1, results_path=results)
    rows = Portfolio(config=CONFIG).run(MEMBERS, dags, session=session)
    session.log.close()
    history, stats = mine_history([results], dags, CONFIG)
    assert stats.observations == len(MEMBERS) * len(dags)
    return rows, history


class TestGolden:
    def test_topk_all_equals_exhaustive(self, dags, ground_truth):
        exhaustive_rows, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG,
            select="adaptive",
            top_k=len(MEMBERS),
            history=history,
        )
        rows = portfolio.run(MEMBERS, dags)
        assert rows == exhaustive_rows  # dataclass equality: every field
        assert (
            format_portfolio_table(rows)
            == format_portfolio_table(exhaustive_rows)
        )
        selection = portfolio.last_selection
        assert selection is not None
        assert selection.jobs_run == selection.jobs_total

    def test_top_k_none_means_all(self, dags, ground_truth):
        exhaustive_rows, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG, select="adaptive", top_k=None, history=history
        )
        assert portfolio.run(MEMBERS, dags) == exhaustive_rows


class TestSubset:
    def test_top_1_runs_strictly_fewer_jobs(self, dags, ground_truth):
        exhaustive_rows, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG, select="adaptive", top_k=1, history=history
        )
        rows = portfolio.run(MEMBERS, dags)
        selection = portfolio.last_selection
        assert selection.jobs_run == len(dags)
        assert selection.jobs_total == len(MEMBERS) * len(dags)
        for row, truth in zip(rows, exhaustive_rows):
            assert len(row.member_costs) == 1
            # every cost that was run matches its exhaustive counterpart
            for member, cost in row.member_costs.items():
                assert cost == truth.member_costs[member]

    def test_zero_regret_on_mined_instances(self, dags, ground_truth):
        _, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG, select="adaptive", top_k=1, history=history
        )
        portfolio.run(MEMBERS, dags)
        aggregate = portfolio.last_selection.aggregate_regret()
        assert aggregate["regret"] == 0.0
        assert aggregate["instances_known"] == float(len(dags))
        assert aggregate["instances_unknown"] == 0.0

    def test_footer_renders_selection_and_regret(self, dags, ground_truth):
        exhaustive_rows, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG, select="adaptive", top_k=1, history=history
        )
        rows = portfolio.run(MEMBERS, dags)
        table = format_portfolio_table(
            rows, reuse=portfolio.last_reuse, selection=portfolio.last_selection
        )
        assert "~ adaptive selection (greedy, top-1): ran 3/9" in table
        assert "~ aggregate regret: 0 (+0.00% vs true best)" in table
        # skipped members render as '-' placeholders, not as zero costs
        assert " - " in table

    def test_history_accepted_as_path(self, dags, ground_truth, tmp_path):
        _, history = ground_truth
        path = tmp_path / "history.json"
        history.save(path)
        by_object = Portfolio(
            config=CONFIG, select="adaptive", top_k=1, history=history
        )
        by_path = Portfolio(
            config=CONFIG, select="adaptive", top_k=1, history=str(path)
        )
        assert by_path.run(MEMBERS, dags) == by_object.run(MEMBERS, dags)


class TestFallbackAndErrors:
    def test_missing_history_warns_and_runs_exhaustively(
        self, dags, ground_truth
    ):
        exhaustive_rows, _ = ground_truth
        portfolio = Portfolio(config=CONFIG, select="adaptive", top_k=1)
        with pytest.warns(UserWarning, match="without a mined history"):
            rows = portfolio.run(MEMBERS, dags)
        assert rows == exhaustive_rows
        assert portfolio.last_selection is None

    def test_exhaustive_mode_never_warns(self, dags):
        portfolio = Portfolio(config=CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            portfolio.run(MEMBERS, dags[:1])
        assert portfolio.last_selection is None

    def test_unknown_select_mode_raises(self):
        with pytest.raises(ConfigurationError, match="unknown selection mode"):
            Portfolio(config=CONFIG, select="bogus")

    def test_top_k_below_one_raises(self, dags, ground_truth):
        _, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG, select="adaptive", top_k=0, history=history
        )
        with pytest.raises(ConfigurationError, match="top_k"):
            portfolio.run(MEMBERS, dags)

    def test_unknown_selector_raises(self, dags, ground_truth):
        _, history = ground_truth
        portfolio = Portfolio(
            config=CONFIG, select="adaptive", top_k=1, history=history,
            selector="bogus",
        )
        with pytest.raises(ConfigurationError, match="unknown selector"):
            portfolio.run(MEMBERS, dags)
